package core

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/vec"
)

// checkedFileStore opens a checksummed file store in a fresh directory,
// with a buffer pool of poolBytes (none when 0), closed at cleanup.
func checkedFileStore(t *testing.T, poolBytes int64) *store.Store {
	t.Helper()
	sto, err := store.OpenFileStore(t.TempDir(), store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sto.Close() })
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	sto.SetCache(poolBytes)
	return sto
}

// syncGate is a backend whose Sync, once armed, reports that it was
// entered and then blocks until the test releases it.
type syncGate struct {
	store.BlockStore
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *syncGate) Sync() error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.BlockStore.Sync()
}

// stepToSwap steps tr's run until the next step is its swap.
func stepToSwap(t *testing.T, tr *Tree) {
	t.Helper()
	s := tr.sto.NewSession()
	for tr.reopt == nil || tr.reopt.next < len(tr.reopt.sn.entries) {
		if _, err := tr.ReoptimizeStep(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSwapLeavesQueriesRunning: a reoptimization swap does not stop
// queries. On a WAL tree whose backend Sync blocks, a KNN started while
// the swap waits in its checkpoint fsync returns before the fsync is
// released, with the answer of the epoch before the swap, which the
// swap has not published yet.
func TestSwapLeavesQueriesRunning(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	pts := randPoints(r, 3000, 8)
	gate := &syncGate{BlockStore: store.NewSimStore(store.DefaultConfig()),
		entered: make(chan struct{}), release: make(chan struct{})}
	sto := store.Wrap(gate)
	tr, err := Build(sto, pts[:2500], walTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReoptimizeStep(sto.NewSession()); err != nil {
		t.Fatal(err)
	}
	for i := 2500; i < len(pts); i += 50 {
		ids := make([]uint32, 50)
		for j := range ids {
			ids[j] = uint32(i + j)
		}
		if err := tr.InsertBatch(sto.NewSession(), pts[i:i+50], ids); err != nil {
			t.Fatal(err)
		}
	}
	stepToSwap(t, tr)
	q := randPoints(r, 1, 8)[0]
	want := mustKNN(t, tr, q, 10)
	old := tr.load()

	gate.armed.Store(true)
	swapped := make(chan error, 1)
	go func() {
		done, err := tr.ReoptimizeStep(sto.NewSession())
		if err == nil && !done {
			err = errors.New("the final step did not swap")
		}
		swapped <- err
	}()
	select {
	case <-gate.entered:
	case err := <-swapped:
		t.Fatalf("the swap ended without a checkpoint fsync: %v", err)
	}
	type answer struct {
		nbs []Neighbor
		err error
	}
	got := make(chan answer, 1)
	go func() {
		nbs, err := tr.KNN(sto.NewSession(), q, 10)
		got <- answer{nbs, err}
	}()
	var a answer
	select {
	case a = <-got:
	case <-time.After(10 * time.Second):
		close(gate.release)
		<-swapped
		t.Fatal("a KNN waited for the swap's checkpoint fsync")
	}
	published := tr.load() != old
	close(gate.release)
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	if published {
		t.Fatal("the swap published before its checkpoint fsync returned")
	}
	if a.err != nil {
		t.Fatal(a.err)
	}
	if !slices.EqualFunc(a.nbs, want, sameNeighbor) {
		t.Fatalf("KNN during the swap %v, before it %v", a.nbs, want)
	}
	if tr.load().gen == old.gen {
		t.Fatal("the swap did not publish the next generation")
	}
	if got := mustKNN(t, tr, q, 10); !slices.EqualFunc(got, want, sameNeighbor) {
		t.Fatalf("KNN after the swap %v, before it %v", got, want)
	}
}

// TestSwapKeepsRetiredDirectoryReadable: a query pinned to a generation
// that a swap retires reads its files and its whole directory extent to
// the end, although the new generation's directory is shorter; the
// swap removes the old files and trims the directory only once that
// query lets go, on its own goroutine.
func TestSwapKeepsRetiredDirectoryReadable(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	pts := randPoints(r, 3000, 32)
	sto := checkedFileStore(t, 0)
	opt := DefaultOptions()
	opt.FixedBits = 16 // 60 points a page, 14 entries a directory block
	tr, err := Build(sto, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Deletes empty pages, whose entries stay in the directory until a
	// reoptimization drops them.
	s := sto.NewSession()
	for i, p := range pts {
		if p[0] >= 0.6 {
			continue
		}
		if found, err := tr.Delete(s, p, uint32(i)); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", i, found, err)
		}
	}
	pinned := tr.pin()
	unpin := sync.OnceFunc(pinned.unpin) // also on a failure, so the swap can end
	defer unpin()
	oldQ, oldE := pinned.gen.q.Name(), pinned.gen.e.Name()
	finished := make(chan error, 1)
	go func() { finished <- tr.Reoptimize() }()
	for tr.load().gen == pinned.gen {
		select {
		case err := <-finished:
			t.Fatalf("Reoptimize returned %v while a query held its old generation", err)
		case <-time.After(time.Millisecond):
		}
	}
	live := tr.load()
	if live.dirBlocks >= pinned.dirBlocks {
		t.Fatalf("the new directory takes %d blocks, the old %d: the case needs a shorter one", live.dirBlocks, pinned.dirBlocks)
	}
	qs := sto.NewSession()
	if err := tr.readDirectory(qs, pinned); err != nil {
		t.Fatalf("reading the retired generation's directory extent: %v", err)
	}
	for i := range pinned.entries {
		if pinned.free[i] {
			continue
		}
		if _, _, err := tr.readPagePoints(qs, pinned, i); err != nil {
			t.Fatalf("reading entry %d of the retired generation: %v", i, err)
		}
	}
	select {
	case err := <-finished:
		t.Fatalf("Reoptimize returned %v while a query held its old generation", err)
	default:
	}
	unpin()
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{oldQ, oldE} {
		if sto.Backend().Lookup(name) != nil {
			t.Fatalf("the retired generation's %s is still on the store", name)
		}
	}
	if got := tr.dirFile.Blocks(); got != tr.load().dirBlocks {
		t.Fatalf("directory file holds %d blocks, the live extent is %d", got, tr.load().dirBlocks)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSwapBackToBackQueriesExact: queries racing back-to-back
// reoptimizations of an unchanging point set, on a checksummed file
// store with and without a pool, all succeed and all return the linear
// scan's answer bit for bit, whichever generation they pinned.
func TestSwapBackToBackQueriesExact(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	pts := randPoints(r, 3000, 8)
	queries := randPoints(r, 24, 8)
	type want struct{ knn, rng []Neighbor }
	wants := make([]want, len(queries))
	for i, q := range queries {
		wants[i] = want{linearKNN(pts, q, 7), linearRange(pts, q, 0.3)}
	}
	for _, c := range []struct {
		name string
		pool int64
	}{{"nopool", 0}, {"pool64k", 64 << 10}} {
		t.Run(c.name, func(t *testing.T) {
			sto := checkedFileStore(t, c.pool)
			tr, err := Build(sto, pts, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			var queried atomic.Int64
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; !stop.Load(); i++ {
						qi := i % len(queries)
						s := sto.NewSession()
						nbs, err := tr.KNN(s, queries[qi], 7)
						if err == nil && !slices.EqualFunc(nbs, wants[qi].knn, sameNeighbor) {
							t.Errorf("query %d: KNN %v, linear scan %v", qi, nbs, wants[qi].knn)
							return
						}
						if err == nil {
							nbs, err = tr.RangeSearch(s, queries[qi], 0.3)
						}
						if err == nil && !slices.EqualFunc(nbs, wants[qi].rng, sameNeighbor) {
							t.Errorf("query %d: range %v, linear scan %v", qi, nbs, wants[qi].rng)
							return
						}
						if err != nil {
							t.Errorf("query %d: %v", qi, err)
							return
						}
						queried.Add(1)
					}
				}(w)
			}
			for i := 0; i < 4; i++ {
				if err := tr.Reoptimize(); err != nil {
					t.Error(err)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if queried.Load() == 0 {
				t.Fatal("no query ran")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// linearKNN is the k nearest points of pts to q by a scan, point i
// having id i.
func linearKNN(pts []vec.Point, q vec.Point, k int) []Neighbor {
	all := linearRange(pts, q, -1)
	return all[:min(k, len(all))]
}

// linearRange is every point of pts within eps of q by a scan, sorted by
// distance, point i having id i; a negative eps takes every point.
func linearRange(pts []vec.Point, q vec.Point, eps float64) []Neighbor {
	var out []Neighbor
	for i, p := range pts {
		if d := vec.Euclidean.Dist(q, p); eps < 0 || d <= eps {
			out = append(out, Neighbor{ID: uint32(i), Dist: d, Point: p})
		}
	}
	slices.SortStableFunc(out, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		}
		return 0
	})
	return out
}

// TestCheckedReadsBesideWrites: on a checksummed file store, queries
// that read the directory while single inserts rewrite it never fail.
// A rewrite that wrote the bytes before it recorded their sums, with no
// order against reads, would let a read between the two check one
// version's bytes against the other's sums and fail with a false
// *store.CorruptBlockError.
func TestCheckedReadsBesideWrites(t *testing.T) {
	pts := dataset.GenCAD(83, 7000)
	base, extra := pts[:6000], pts[6000:]
	opt := DefaultOptions()
	opt.FixedBits = 32 // a 4-block directory: each rewrite takes longer
	for _, c := range []struct {
		name string
		pool int64
	}{{"nopool", 0}, {"pool64k", 64 << 10}} {
		t.Run(c.name, func(t *testing.T) {
			sto := checkedFileStore(t, c.pool)
			tr, err := Build(sto, base, opt)
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			var queried, failed atomic.Int64
			var first atomic.Value
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := sto.NewSession()
					var dst []Neighbor
					for i := w; !stop.Load(); i += 2 {
						s.Reset()
						var err error
						if dst, err = tr.KNNInto(s, base[i*37%len(base)], 5, dst); err != nil {
							failed.Add(1)
							first.CompareAndSwap(nil, err.Error())
						}
						queried.Add(1)
					}
				}(w)
			}
			s := sto.NewSession()
			for i, p := range extra {
				if err := tr.Insert(s, p, uint32(len(base)+i)); err != nil {
					t.Error(err)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if n := failed.Load(); n > 0 {
				t.Fatalf("%d of %d queries failed beside the inserts, first: %v", n, queried.Load(), first.Load())
			}
		})
	}
}
