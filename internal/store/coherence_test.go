package store

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// padBlocks returns p zero-padded to nblocks blocks of bs bytes, the
// bytes a backend stores for it.
func padBlocks(p []byte, nblocks, bs int) []byte {
	out := make([]byte, nblocks*bs)
	copy(out, p)
	return out
}

// checkFramesMatch requires every resident frame to hold the bytes the
// model says its block holds: no frame of a file the model lacks, none
// past a file's end, none stale.
func checkFramesMatch(t *testing.T, p *BufferPool, model map[string][]byte, bs int) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.frames {
		want, ok := model[key.name]
		switch {
		case !ok:
			t.Fatalf("frame %s[%d] of a file the model does not hold", key.name, key.pos)
		case (key.pos+1)*bs > len(want):
			t.Fatalf("frame %s[%d] past the file's %d blocks", key.name, key.pos, len(want)/bs)
		case !bytes.Equal(fr.data, want[key.pos*bs:(key.pos+1)*bs]):
			t.Fatalf("frame %s[%d] is stale", key.name, key.pos)
		}
	}
}

// randomBytes returns up to maxBlocks blocks of random bytes, often not
// a whole number of blocks.
func randomBytes(r *rand.Rand, maxBlocks, bs int) []byte {
	p := make([]byte, r.Intn(maxBlocks*bs+1))
	r.Read(p)
	return p
}

// TestPoolCoherenceModel runs seeded random sequences of Append,
// SetContents, Truncate, NewFile, Remove and Forget, interleaved with
// pooled reads, against a shadow model of the bytes each file held after
// its last successful mutation. One of the three files is marked
// EvictFirst. The pool holds five blocks, so fills and writes evict.
// Every pooled read must equal the model, and so must every resident
// frame after every step, each linked on its own list; a Forget must
// leave no frame of its range. On the fault-wrapped backend writes
// fail transiently (retries off) or tear; a failed mutation must leave no
// frame of its file, and the model then takes the bytes the backend
// holds, which is what an uncached read returns.
func TestPoolCoherenceModel(t *testing.T) {
	backends := []struct {
		name   string
		faulty bool
		open   func(t *testing.T, seed int64) *Store
	}{
		{"sim", false, func(*testing.T, int64) *Store { return NewSim(testConfig()) }},
		{"file", false, func(t *testing.T, _ int64) *Store {
			sto, err := OpenFileStore(t.TempDir(), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sto.Close() })
			return sto
		}},
		{"sim-checked", false, func(t *testing.T, _ int64) *Store {
			sto := NewSim(testConfig())
			if err := sto.EnableChecksums(); err != nil {
				t.Fatal(err)
			}
			return sto
		}},
		{"sim-faults", true, func(_ *testing.T, seed int64) *Store {
			sto := Wrap(NewFaultStore(NewSimStore(testConfig()), FaultConfig{Seed: seed, WriteErr: 0.05, Torn: 0.15}))
			sto.SetRetryPolicy(RetryPolicy{})
			return sto
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			failures := 0
			for seed := int64(1); seed <= 6; seed++ {
				failures += runPoolModel(t, b.open(t, seed), seed, b.faulty)
			}
			if b.faulty && failures == 0 {
				t.Fatal("no mutation failed; the failure path went untested")
			}
		})
	}
}

// runPoolModel runs one seeded sequence and returns the number of failed
// mutations.
func runPoolModel(t *testing.T, sto *Store, seed int64, faulty bool) int {
	t.Helper()
	bs := sto.Config().BlockSize
	sto.SetCache(5 * int64(bs))
	r := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c"}
	const evictFirst = "c"
	model := map[string][]byte{}
	failures := 0
	for step := 0; step < 400; step++ {
		name := names[r.Intn(len(names))]
		f := sto.File(name)
		var err error
		switch op := r.Intn(11); {
		case f == nil || op == 0:
			nf, err := sto.NewFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == evictFirst {
				nf.EvictFirst()
			}
			model[name] = nil
		case op == 1:
			if err := sto.Remove(name); err != nil {
				t.Fatal(err)
			}
			delete(model, name)
		case op == 2:
			p := randomBytes(r, 3, bs)
			var n int
			if _, n, err = f.Append(p); err == nil {
				model[name] = append(model[name], padBlocks(p, n, bs)...)
			}
		case op == 3:
			p := randomBytes(r, 5, bs)
			if err = f.SetContents(p); err == nil {
				model[name] = padBlocks(p, (len(p)+bs-1)/bs, bs)
			}
		case op == 4:
			n := r.Intn(f.Blocks() + 2)
			if err = f.Truncate(n); err == nil && n*bs < len(model[name]) {
				model[name] = model[name][:n*bs]
			}
		case op == 5:
			pos, n := r.Intn(f.Blocks()+2), r.Intn(4)
			f.Forget(pos, n)
			for b := range residentBlocks(sto.Pool(), name) {
				if b >= pos && b < pos+n {
					t.Fatalf("seed %d step %d: block %d of %s survives Forget(%d, %d)", seed, step, b, name, pos, n)
				}
			}
		default:
			blocks := len(model[name]) / bs
			if blocks == 0 {
				continue
			}
			pos := r.Intn(blocks)
			n := 1 + r.Intn(blocks-pos)
			got, rerr := sto.NewSession().Read(f, pos, n)
			if rerr != nil {
				t.Fatalf("seed %d step %d: read %s[%d,+%d): %v", seed, step, name, pos, n, rerr)
			}
			if !bytes.Equal(got, model[name][pos*bs:(pos+n)*bs]) {
				t.Fatalf("seed %d step %d: pooled read of %s[%d,+%d) differs from the model", seed, step, name, pos, n)
			}
		}
		if err != nil {
			if !faulty {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			failures++
			if got := residentBlocks(sto.Pool(), name); len(got) != 0 {
				t.Fatalf("seed %d step %d: blocks %v of %s survive its failed mutation", seed, step, got, name)
			}
			model[name] = nil
			if n := f.Blocks(); n > 0 {
				raw, rerr := f.ReadRaw(0, n)
				if rerr != nil {
					t.Fatal(rerr)
				}
				model[name] = bytes.Clone(raw)
			}
		}
		checkFramesMatch(t, sto.Pool(), model, bs)
		lists(t, sto.Pool())
	}
	return failures
}

// TestPoolCoherenceConcurrent: sessions read a file and forget blocks of
// it while a writer appends to it, rewrites it and truncates it, through
// a pool smaller than the file. Halfway the writer marks the file
// EvictFirst, so its frames straddle both lists. A read that races a
// mutation may fail or see either version; once the writer stops, every
// resident frame must equal the file's final bytes, and a pooled read of
// the whole file must return them. Run it under -race.
func TestPoolCoherenceConcurrent(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		bs := sto.Config().BlockSize
		f := mustFile(t, sto, "t")
		model := padBlocks(nil, 4, bs)
		mustAppend(t, f, model)
		sto.SetCache(6 * int64(bs))

		stop := make(chan struct{})
		var wg sync.WaitGroup
		var once sync.Once
		halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
		defer halt() // a failing writer must not leave the readers running
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				s := sto.NewSession()
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := f.Blocks()
					if n == 0 {
						continue
					}
					pos := r.Intn(n)
					if r.Intn(4) == 0 {
						f.Forget(pos, 1+r.Intn(2))
						continue
					}
					s.Reset()
					s.Read(f, pos, 1+r.Intn(n-pos)) // may fail: the file can shrink under the read
				}
			}(int64(i + 1))
		}

		r := rand.New(rand.NewSource(7))
		for step := 0; step < 300; step++ {
			if step == 150 {
				f.EvictFirst()
			}
			switch r.Intn(3) {
			case 0:
				p := randomBytes(r, 3, bs)
				_, n := mustAppend(t, f, p)
				model = append(model, padBlocks(p, n, bs)...)
			case 1:
				p := randomBytes(r, 8, bs)
				if err := f.SetContents(p); err != nil {
					t.Fatal(err)
				}
				model = padBlocks(p, (len(p)+bs-1)/bs, bs)
			case 2:
				n := r.Intn(f.Blocks() + 1)
				if err := f.Truncate(n); err != nil {
					t.Fatal(err)
				}
				model = model[:n*bs]
			}
		}
		halt()

		checkFramesMatch(t, sto.Pool(), map[string][]byte{"t": model}, bs)
		lists(t, sto.Pool())
		if n := len(model) / bs; n > 0 {
			got, err := sto.NewSession().Read(f, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model) {
				t.Fatal("pooled read after the writer stopped differs from the file")
			}
		}
	})
}
