package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xtree"
)

func mixedBatch(r *rand.Rand, n, dim int) []Query {
	batch := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = r.Float32()
		}
		switch i % 3 {
		case 0:
			batch = append(batch, Query{Kind: KNN, Point: q, K: 1 + r.Intn(8)})
		case 1:
			batch = append(batch, Query{Kind: Range, Point: q, Eps: 0.2 + r.Float64()*0.3})
		default:
			lo := make(vec.Point, dim)
			hi := make(vec.Point, dim)
			for j := range lo {
				a := r.Float32() * 0.6
				lo[j], hi[j] = a, a+0.3+r.Float32()*0.3
			}
			batch = append(batch, Query{Kind: Window, Window: vec.MBR{Lo: lo, Hi: hi}})
		}
	}
	return batch
}

// TestEngineSharingMatchesShareNothing is the engine-level equivalence
// contract: a mixed batch through the scan-sharing coordinator returns
// bit-identical neighbors to the same batch through the share-nothing
// worker pool.
func TestEngineSharingMatchesShareNothing(t *testing.T) {
	sto, tr, _ := buildTree(t, 41, 4000, 8)
	shared := New(sto, tr, 4, WithScanSharing())
	defer shared.Close()
	plain := New(sto, tr, 4)
	defer plain.Close()
	if !shared.Sharing() {
		t.Fatal("IQ-tree engine with WithScanSharing should share")
	}
	if plain.Sharing() {
		t.Fatal("engine without WithScanSharing should not share")
	}

	r := rand.New(rand.NewSource(42))
	batch := mixedBatch(r, 48, 8)
	got := shared.SubmitBatch(batch)
	want := plain.SubmitBatch(batch)
	for i := range batch {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("query %d: shared err %v, plain err %v", i, got[i].Err, want[i].Err)
		}
		if len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("query %d (%v): shared %d results, plain %d",
				i, batch[i].Kind, len(got[i].Neighbors), len(want[i].Neighbors))
		}
		for j := range want[i].Neighbors {
			g, w := got[i].Neighbors[j], want[i].Neighbors[j]
			if g.ID != w.ID || g.Dist != w.Dist {
				t.Fatalf("query %d result %d: shared (%d,%v), plain (%d,%v)",
					i, j, g.ID, g.Dist, w.ID, w.Dist)
			}
		}
	}
}

// TestEngineSharingFallback checks that WithScanSharing on an index
// without shared-scan support degrades gracefully to the worker pool.
func TestEngineSharingFallback(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	pts := randPoints(r, 1500, 5)
	sto := store.NewSim(store.DefaultConfig())
	xt, err := xtree.Build(sto, pts, xtree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := New(sto, xt, 4, WithScanSharing())
	defer e.Close()
	if e.Sharing() {
		t.Fatal("X-tree does not implement SharedScanner; engine must fall back")
	}
	queries := randPoints(r, 12, 5)
	for i, q := range queries {
		res := e.Submit(Query{Kind: KNN, Point: q, K: 3})
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		want, err := xt.KNN(sto.NewSession(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) != len(want) || res.Neighbors[0].ID != want[0].ID {
			t.Fatalf("query %d: fallback results diverge", i)
		}
	}
}

// TestEngineSharingCancellation checks per-query context semantics in
// the shared pipeline: a canceled query fails with ErrCanceled while
// co-scheduled queries complete with correct answers.
func TestEngineSharingCancellation(t *testing.T) {
	sto, tr, _ := buildTree(t, 44, 3000, 6)
	e := New(sto, tr, 2, WithScanSharing())
	defer e.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	r := rand.New(rand.NewSource(45))
	queries := randPoints(r, 8, 6)
	var wg sync.WaitGroup
	results := make([]Result, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q vec.Point) {
			defer wg.Done()
			qq := Query{Kind: KNN, Point: q, K: 3}
			if i%2 == 1 {
				qq.Ctx = canceled
			}
			results[i] = e.Submit(qq)
		}(i, q)
	}
	wg.Wait()
	for i, res := range results {
		if i%2 == 1 {
			if !errors.Is(res.Err, ErrCanceled) {
				t.Fatalf("canceled query %d: err %v, want ErrCanceled", i, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("live query %d failed alongside canceled peers: %v", i, res.Err)
		}
		want, err := tr.KNN(sto.NewSession(), queries[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if res.Neighbors[j].ID != want[j].ID {
				t.Fatalf("live query %d result %d diverged", i, j)
			}
		}
	}
}

// TestEngineSharingCountersAndTraces pins the observability contract of
// the shared pipeline: a clustered batch fetches each page once but
// serves it to several queries (serves/fetches > 1), per-query traces
// still sum exactly to the session's accounted stats, and co-attached
// reads appear in the trace's shared tier.
func TestEngineSharingCountersAndTraces(t *testing.T) {
	sto, tr, _ := buildTree(t, 46, 4000, 8)
	reg := &obs.Registry{}
	e := New(sto, tr, 4, WithScanSharing(), WithRegistry(reg), WithShareWindow(32))
	defer e.Close()

	// 32 near-identical queries: their candidate pages overlap almost
	// completely, so sharing must serve far more pages than it fetches.
	center := vec.Point{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	r := rand.New(rand.NewSource(47))
	batch := make([]Query, 32)
	for i := range batch {
		q := make(vec.Point, len(center))
		for j := range q {
			q[j] = center[j] + (r.Float32()-0.5)*0.02
		}
		batch[i] = Query{Kind: KNN, Point: q, K: 5, Trace: true}
	}
	results := e.SubmitBatch(batch)

	sharedBlocks := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		if res.Trace == nil {
			t.Fatalf("query %d: no trace", i)
		}
		seeks, blocks, reads, cpu := res.Trace.Totals()
		if seeks != res.Stats.Seeks || blocks != res.Stats.BlocksRead || reads != res.Stats.Reads {
			t.Fatalf("query %d: trace totals (%d,%d,%d) != stats %+v — shared reads leaked into totals",
				i, seeks, blocks, reads, res.Stats)
		}
		if math.Abs(cpu-res.Stats.CPUSeconds) > 1e-9 {
			t.Fatalf("query %d: trace cpu %g != stats cpu %g", i, cpu, res.Stats.CPUSeconds)
		}
		sharedBlocks += res.Trace.SharedBlocks()
	}
	if sharedBlocks == 0 {
		t.Fatal("clustered batch recorded no shared reads in any trace")
	}
	fetched := reg.Counter("engine.shared.pages_fetched").Value()
	serves := reg.Counter("engine.shared.page_serves").Value()
	rounds := reg.Counter("engine.shared.rounds").Value()
	if fetched == 0 || rounds == 0 {
		t.Fatalf("sharing counters silent: fetched=%d rounds=%d", fetched, rounds)
	}
	if float64(serves)/float64(fetched) <= 1.0 {
		t.Fatalf("sharing ratio %d/%d = %.2f, want > 1 for clustered queries",
			serves, fetched, float64(serves)/float64(fetched))
	}
}

// TestEngineQueryValidation checks that malformed queries are rejected
// at submission with the typed ErrInvalidQuery, never reaching the
// execution pipeline.
func TestEngineQueryValidation(t *testing.T) {
	sto, tr, _ := buildTree(t, 48, 500, 4)
	e := New(sto, tr, 2, WithScanSharing())
	defer e.Close()

	p := vec.Point{0.5, 0.5, 0.5, 0.5}
	bad := []Query{
		{Kind: KNN, K: 3},                // nil point
		{Kind: KNN, Point: p, K: 0},      // k <= 0
		{Kind: KNN, Point: p, K: -2},     // k <= 0
		{Kind: Range, Eps: 0.1},          // nil point
		{Kind: Range, Point: p, Eps: -1}, // negative eps
		{Kind: Range, Point: p, Eps: math.NaN()},
		{Kind: Window}, // empty window
		{Kind: Window, Window: vec.MBR{Lo: vec.Point{0, 0}, Hi: vec.Point{1}}},    // mismatched dims
		{Kind: Window, Window: vec.MBR{Lo: vec.Point{1, 1}, Hi: vec.Point{0, 0}}}, // inverted
		{Kind: Kind(99), Point: p, K: 1},                                          // unknown kind
		{Kind: KNN, Point: p, K: 3, MinRecall: -0.1},                              // recall below [0, 1]
		{Kind: KNN, Point: p, K: 3, MinRecall: 1.5},                               // recall above [0, 1]
		{Kind: KNN, Point: p, K: 3, MinRecall: math.NaN()},                        // recall NaN
		{Kind: Range, Point: p, Eps: 0.1, MinRecall: 0.9},                         // recall target on non-KNN
		{Kind: Window, Window: vec.MBR{Lo: p, Hi: p}, MinRecall: 0.9},             // recall target on non-KNN
	}
	for i, q := range bad {
		res := e.Submit(q)
		if !errors.Is(res.Err, ErrInvalidQuery) {
			t.Fatalf("bad query %d: err %v, want ErrInvalidQuery", i, res.Err)
		}
	}
	good := []Query{
		{Kind: KNN, Point: p, K: 3},
		{Kind: KNN, Point: p, K: 3, MinRecall: 0.9}, // recall target
		{Kind: KNN, Point: p, K: 3, MinRecall: 1},   // exact-degenerate knob
	}
	for i, q := range good {
		if res := e.Submit(q); res.Err != nil {
			t.Fatalf("valid query %d rejected: %v", i, res.Err)
		}
	}
}

// TestEngineBusyMakespanConsistency is the satellite race test: Makespan
// and WorkerBusy read a consistent snapshot while queries are completing
// concurrently, and Makespan never decreases.
func TestEngineBusyMakespanConsistency(t *testing.T) {
	for _, sharing := range []bool{false, true} {
		name := "plain"
		opts := []Option{}
		if sharing {
			name = "sharing"
			opts = append(opts, WithScanSharing())
		}
		t.Run(name, func(t *testing.T) {
			sto, tr, _ := buildTree(t, 49, 2000, 6)
			e := New(sto, tr, 4, opts...)
			defer e.Close()

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for g := 0; g < 3; g++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					prev := 0.0
					for {
						select {
						case <-stop:
							return
						default:
						}
						busy := e.WorkerBusy()
						if len(busy) != e.Workers() {
							t.Errorf("WorkerBusy returned %d lanes, want %d", len(busy), e.Workers())
							return
						}
						var max float64
						for _, b := range busy {
							if b < 0 {
								t.Errorf("negative busy %v", b)
								return
							}
							if b > max {
								max = b
							}
						}
						m := e.Makespan()
						if m < prev {
							t.Errorf("Makespan decreased: %v -> %v", prev, m)
							return
						}
						prev = m
					}
				}()
			}

			r := rand.New(rand.NewSource(50))
			batch := mixedBatch(r, 64, 6)
			var total float64
			for _, res := range e.SubmitBatch(batch) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				total += res.SimTime
			}
			close(stop)
			readers.Wait()

			var ledger float64
			for _, b := range e.WorkerBusy() {
				ledger += b
			}
			if math.Abs(ledger-total) > 1e-9 {
				t.Fatalf("busy ledger %v != summed sim time %v", ledger, total)
			}
			m := e.Makespan()
			if m < total/4-1e-9 || m > total+1e-9 {
				t.Fatalf("makespan %v outside [total/4=%v, total=%v]", m, total/4, total)
			}
		})
	}
}

// TestEngineSharingSurvivesReoptimize runs reorganizations concurrently
// with a shared batch: stale cursors must be restarted transparently and
// every query must still answer exactly.
func TestEngineSharingSurvivesReoptimize(t *testing.T) {
	sto, tr, _ := buildTree(t, 51, 3000, 6)
	reg := &obs.Registry{}
	e := New(sto, tr, 4, WithScanSharing(), WithRegistry(reg))
	defer e.Close()

	// A writer reorganizing in a tight loop would exhaust the bounded
	// restart budget by design (maxSharedRestarts); a realistic writer
	// reorganizes occasionally, so space the generations out.
	stop := make(chan struct{})
	var reopt sync.WaitGroup
	reopt.Add(1)
	go func() {
		defer reopt.Done()
		for i := 0; i < 4; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := tr.Reoptimize(); err != nil {
				t.Errorf("reoptimize: %v", err)
				return
			}
		}
	}()

	r := rand.New(rand.NewSource(52))
	batch := mixedBatch(r, 40, 6)
	results := e.SubmitBatch(batch)
	close(stop)
	reopt.Wait()
	if t.Failed() {
		return
	}

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d under reoptimize: %v", i, res.Err)
		}
		s := sto.NewSession()
		var want []vec.Neighbor
		var err error
		switch batch[i].Kind {
		case KNN:
			want, err = tr.KNN(s, batch[i].Point, batch[i].K)
		case Range:
			want, err = tr.RangeSearch(s, batch[i].Point, batch[i].Eps)
		default:
			want, err = tr.WindowQuery(s, batch[i].Window)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(res.Neighbors), len(want))
		}
		// The query may have run against any generation; page order (and
		// with it tie/window ordering) differs across layouts, so compare
		// the result sets, not the sequences.
		got := append([]vec.Neighbor(nil), res.Neighbors...)
		byDistID := func(nbs []vec.Neighbor) func(a, b int) bool {
			return func(a, b int) bool {
				if nbs[a].Dist != nbs[b].Dist {
					return nbs[a].Dist < nbs[b].Dist
				}
				return nbs[a].ID < nbs[b].ID
			}
		}
		sort.Slice(got, byDistID(got))
		sort.Slice(want, byDistID(want))
		for j := range want {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("query %d result %d diverged after reoptimize", i, j)
			}
		}
	}
}
