package store

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSessionResetClearsLeakedState reproduces the reuse bug the query
// engine's session pooling would otherwise hit: a session poisoned by a
// failed read (or carrying another query's charges) must come back clean
// after Reset.
func TestSessionResetClearsLeakedState(t *testing.T) {
	sto := NewSim(testConfig())
	f := mustFile(t, sto, "t")
	mustAppend(t, f, make([]byte, 128))

	s := sto.NewSession()
	s.SetTrace(obs.NewQueryTrace("q1"))
	if _, err := s.Read(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(f, 99, 1); err == nil {
		t.Fatal("expected read past end to fail")
	}
	// The session is now poisoned: even a valid read returns the error.
	if _, err := s.Read(f, 0, 1); err == nil {
		t.Fatal("sticky error should poison later reads")
	}
	if s.Stats.Reads == 0 || s.Trace().Level("t").Reads == 0 {
		t.Fatal("expected charges before reset")
	}

	s.Reset()
	if s.Err() != nil {
		t.Fatalf("Err after Reset: %v", s.Err())
	}
	if s.Trace() != nil {
		t.Fatal("trace leaked through Reset")
	}
	if s.Stats != (Stats{}) {
		t.Fatalf("stats leaked through Reset: %+v", s.Stats)
	}
	// A fresh read must charge exactly like a brand-new session (one
	// seek: the head position must not leak either).
	if _, err := s.Read(f, 1, 1); err != nil {
		t.Fatal(err)
	}
	fresh := sto.NewSession()
	if _, err := fresh.Read(f, 1, 1); err != nil {
		t.Fatal(err)
	}
	if s.Stats != fresh.Stats {
		t.Fatalf("reset session charged %+v, fresh session %+v", s.Stats, fresh.Stats)
	}
}

// TestSessionResetRecapturesPool checks that Reset picks up a buffer
// pool attached to the store after the session was created.
func TestSessionResetRecapturesPool(t *testing.T) {
	sto := NewSim(testConfig())
	f := mustFile(t, sto, "t")
	mustAppend(t, f, make([]byte, 64))

	s := sto.NewSession() // created before the pool exists
	sto.SetCache(16 * 1024)
	s.Reset()
	if _, err := s.Read(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if _, err := s.Read(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if s.Stats.BlocksRead != 0 {
		t.Fatalf("second read should hit the pool, charged %+v", s.Stats)
	}
}

// TestSimFileAppendAfterTruncateKeepsAlias: Append grows a file in
// place, so Truncate must drop the spare capacity — otherwise the next
// append would overwrite cut bytes that a reader still holds.
func TestSimFileAppendAfterTruncateKeepsAlias(t *testing.T) {
	bs := testConfig().BlockSize
	f, err := NewSimStore(testConfig()).Create("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Append(bytes.Repeat([]byte{1}, 2*bs)); err != nil {
		t.Fatal(err)
	}
	held, err := f.ReadBlocks(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Append(bytes.Repeat([]byte{2}, bs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{1}, bs)) {
		t.Fatal("append after truncate overwrote bytes a reader holds")
	}
}

// TestSimFileConcurrentReadersDuringRewrite verifies the copy-on-write
// contract the snapshot layers depend on: a slice returned by ReadBlocks
// keeps its bytes even while another goroutine truncates and rewrites
// the file.
func TestSimFileConcurrentReadersDuringRewrite(t *testing.T) {
	sto := NewSim(testConfig())
	f := mustFile(t, sto, "t")
	bs := testConfig().BlockSize
	content := func(b byte) []byte {
		p := make([]byte, 4*bs)
		for i := range p {
			p[i] = b
		}
		return p
	}
	mustAppend(t, f, content(1))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := sto.NewSession()
				n := f.Blocks()
				if n == 0 {
					continue
				}
				buf, err := s.Read(f, 0, n)
				if err != nil {
					continue // racing a truncate; the error path is fine
				}
				// Each version of the file is a constant byte; a mixed
				// buffer means a reader observed a torn rewrite.
				for _, b := range buf {
					if b != buf[0] {
						errs <- "torn read: mixed file versions in one buffer"
						return
					}
				}
				// The alias must stay stable after the read returns.
				head := buf[0]
				if !bytes.Equal(buf, bytes.Repeat([]byte{head}, len(buf))) {
					errs <- "alias mutated after read"
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := f.SetContents(content(byte(i%250) + 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
