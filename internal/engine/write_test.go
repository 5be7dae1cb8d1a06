package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// buildWALTree builds a WAL-mode tree for write-path tests.
func buildWALTree(t *testing.T, seed int64, n, dim int) (*store.Store, *core.Tree, []vec.Point) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := randPoints(r, n, dim)
	sto := store.NewSim(store.DefaultConfig())
	opt := core.DefaultOptions()
	opt.WAL = true
	tr, err := core.Build(sto, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sto, tr, pts
}

func TestSubmitWriteRequiresOption(t *testing.T) {
	sto, tr, _ := buildTree(t, 40, 500, 4)
	e := New(sto, tr, 2)
	defer e.Close()
	if e.Writable() {
		t.Fatal("engine without WithWrites reports Writable")
	}
	res := e.SubmitWrite(Write{Kind: WriteInsert, Points: []vec.Point{{1, 2, 3, 4}}, IDs: []uint32{9}})
	if !errors.Is(res.Err, ErrNoWrites) {
		t.Fatalf("SubmitWrite without write path: %v, want ErrNoWrites", res.Err)
	}
}

func TestSubmitWriteValidation(t *testing.T) {
	sto, tr, _ := buildTree(t, 41, 500, 4)
	e := New(sto, tr, 2, WithWrites())
	defer e.Close()
	if !e.Writable() {
		t.Fatal("engine with WithWrites over a core tree not writable")
	}
	cases := []Write{
		{Kind: WriteInsert},
		{Kind: WriteInsert, Points: []vec.Point{{1, 2, 3, 4}}, IDs: []uint32{1, 2}},
		{Kind: WriteInsert, Points: []vec.Point{nil}, IDs: []uint32{1}},
		{Kind: WriteKind(99), Points: []vec.Point{{1, 2, 3, 4}}, IDs: []uint32{1}},
	}
	for i, w := range cases {
		if res := e.SubmitWrite(w); !errors.Is(res.Err, ErrInvalidWrite) {
			t.Fatalf("case %d: %v, want ErrInvalidWrite", i, res.Err)
		}
	}
}

func TestSubmitWriteAfterClose(t *testing.T) {
	sto, tr, _ := buildTree(t, 42, 500, 4)
	e := New(sto, tr, 2, WithWrites())
	e.Close()
	res := e.SubmitWrite(Write{Kind: WriteInsert, Points: []vec.Point{{1, 2, 3, 4}}, IDs: []uint32{9}})
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("SubmitWrite after Close: %v, want ErrClosed", res.Err)
	}
}

func TestSubmitWriteCanceledContext(t *testing.T) {
	sto, tr, _ := buildTree(t, 43, 500, 4)
	e := New(sto, tr, 2, WithWrites())
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.SubmitWrite(Write{
		Kind: WriteInsert, Points: []vec.Point{{1, 2, 3, 4}}, IDs: []uint32{9}, Ctx: ctx,
	})
	if !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("SubmitWrite with done context: %v, want ErrCanceled", res.Err)
	}
}

// TestWritePathMixedIngest hammers the write lane from many goroutines —
// inserts and deletes — while readers query through the pool, then
// verifies the final content and the write metrics.
func TestWritePathMixedIngest(t *testing.T) {
	reg := &obs.Registry{}
	sto, tr, pts := buildWALTree(t, 44, 2000, 6)
	e := New(sto, tr, 4, WithWrites(), WithRegistry(reg))
	defer e.Close()

	r := rand.New(rand.NewSource(45))
	extra := randPoints(r, 400, 6)
	queries := randPoints(r, 40, 6)

	var wg sync.WaitGroup
	const writers = 8
	perWriter := len(extra) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				idx := w*perWriter + i
				res := e.SubmitWrite(Write{
					Kind:   WriteInsert,
					Points: []vec.Point{extra[idx]},
					IDs:    []uint32{uint32(100000 + idx)},
				})
				if res.Err != nil {
					t.Errorf("insert %d: %v", idx, res.Err)
					return
				}
				if res.Found != 1 {
					t.Errorf("insert %d: Found=%d", idx, res.Found)
				}
			}
		}(w)
	}
	// Deletes of base points ride alongside the insert burst.
	wg.Add(1)
	deleted := map[uint32]bool{}
	go func() {
		defer wg.Done()
		for i := 0; i < len(pts); i += 11 {
			res := e.SubmitWrite(Write{
				Kind:   WriteDelete,
				Points: []vec.Point{pts[i]},
				IDs:    []uint32{uint32(i)},
			})
			if res.Err != nil {
				t.Errorf("delete %d: %v", i, res.Err)
				return
			}
			if res.Found != 1 {
				t.Errorf("delete %d: Found=%d", i, res.Found)
			}
		}
	}()
	// Readers overlap the ingest; results are checked for internal
	// consistency only (content races with the writers by design).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, q := range queries {
			res := e.Submit(Query{Kind: KNN, Point: q, K: 3})
			if res.Err != nil {
				t.Errorf("query: %v", res.Err)
				return
			}
			if !sort.SliceIsSorted(res.Neighbors, func(a, b int) bool {
				return res.Neighbors[a].Dist < res.Neighbors[b].Dist
			}) {
				t.Error("unsorted KNN result during ingest")
			}
		}
	}()
	wg.Wait()
	for i := 0; i < len(pts); i += 11 {
		deleted[uint32(i)] = true
	}

	// Final content: base minus deletes plus extras, checked exactly.
	var want []vec.Point
	for i, p := range pts {
		if !deleted[uint32(i)] {
			want = append(want, p)
		}
	}
	want = append(want, extra...)
	if got := tr.Len(); got != len(want) {
		t.Fatalf("tree has %d points, want %d", got, len(want))
	}
	for qi, q := range queries[:10] {
		res := e.Submit(Query{Kind: KNN, Point: q, K: 5})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		ds := make([]float64, len(want))
		for i, p := range want {
			ds[i] = vec.Euclidean.Dist(q, p)
		}
		sort.Float64s(ds)
		for i := range res.Neighbors {
			if math.Abs(res.Neighbors[i].Dist-ds[i]) > 1e-5 {
				t.Fatalf("query %d result %d: %f vs %f", qi, i, res.Neighbors[i].Dist, ds[i])
			}
		}
	}

	snap := reg.Snapshot().Counters
	wantWrites := int64(writers*perWriter + (len(pts)+10)/11)
	if snap["engine.writes"] != wantWrites {
		t.Fatalf("engine.writes = %d, want %d", snap["engine.writes"], wantWrites)
	}
	if snap["engine.write_failures"] != 0 {
		t.Fatalf("engine.write_failures = %d", snap["engine.write_failures"])
	}
	if b := snap["engine.write_batches"]; b < 1 || b > wantWrites {
		t.Fatalf("engine.write_batches = %d, want 1..%d", b, wantWrites)
	}

	// Durability: every acknowledged write survives a crash-reopen.
	rec, err := core.Open(store.Wrap(sto.Backend()))
	if err != nil {
		t.Fatalf("recovery after ingest: %v", err)
	}
	if rec.Len() != len(want) {
		t.Fatalf("recovered tree has %d points, want %d", rec.Len(), len(want))
	}
}

// gatedMutator wraps a tree so the test can hold the writer inside an
// InsertBatch call while later submissions pile up in the queue, making
// the coalescing observable deterministically.
type gatedMutator struct {
	*core.Tree
	started chan struct{} // one send per InsertBatch entry
	gate    chan struct{} // one receive per InsertBatch before applying

	mu         sync.Mutex
	batchSizes []int
}

func (g *gatedMutator) InsertBatch(s *store.Session, pts []vec.Point, ids []uint32) error {
	g.started <- struct{}{}
	<-g.gate
	g.mu.Lock()
	g.batchSizes = append(g.batchSizes, len(pts))
	g.mu.Unlock()
	return g.Tree.InsertBatch(s, pts, ids)
}

// TestWriteCoalescing holds the writer inside the first insert while
// nine more single-point inserts queue up, then checks the writer folds
// them into one batch application: 10 writes, 2 batches of 1 and 9.
func TestWriteCoalescing(t *testing.T) {
	reg := &obs.Registry{}
	sto, tr, _ := buildWALTree(t, 46, 1500, 4)
	gm := &gatedMutator{Tree: tr, started: make(chan struct{}), gate: make(chan struct{})}
	// Three workers give a write queue of 12 slots, so all nine queued
	// writes fit in its buffer and the wait below can observe them there.
	e := New(sto, gm, 3, WithWrites(), WithRegistry(reg))
	defer e.Close()

	r := rand.New(rand.NewSource(47))
	extra := randPoints(r, 10, 4)
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		res := e.SubmitWrite(Write{
			Kind:   WriteInsert,
			Points: []vec.Point{extra[i]},
			IDs:    []uint32{uint32(50000 + i)},
		})
		if res.Err != nil {
			t.Errorf("insert %d: %v", i, res.Err)
		}
	}
	wg.Add(1)
	go submit(0)
	<-gm.started // the writer is now blocked inside insert 0
	for i := 1; i < len(extra); i++ {
		wg.Add(1)
		go submit(i)
	}
	// Wait until all nine sit in the queue's buffer. The depth gauge alone
	// is not enough: it counts a write before its send, and the writer's
	// non-blocking drain misses a submitter still between the two.
	for len(e.writeQueue) != 9 {
		runtime.Gosched()
	}
	gm.gate <- struct{}{} // release insert 0: applied alone
	<-gm.started          // the writer picked up the rest as one batch
	gm.gate <- struct{}{}
	wg.Wait()

	gm.mu.Lock()
	sizes := append([]int(nil), gm.batchSizes...)
	gm.mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 9 {
		t.Fatalf("batch sizes = %v, want [1 9]", sizes)
	}
	snap := reg.Snapshot().Counters
	if snap["engine.writes"] != 10 || snap["engine.write_batches"] != 2 {
		t.Fatalf("writes=%d batches=%d, want 10/2",
			snap["engine.writes"], snap["engine.write_batches"])
	}
	if tr.Len() != 1500+10 {
		t.Fatalf("tree has %d points, want %d", tr.Len(), 1510)
	}
}
