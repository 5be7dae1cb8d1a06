package engine

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xtree"
)

func randPoints(r *rand.Rand, n, dim int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	return pts
}

func buildTree(t *testing.T, seed int64, n, dim int) (*store.Store, *core.Tree, []vec.Point) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := randPoints(r, n, dim)
	sto := store.NewSim(store.DefaultConfig())
	tr, err := core.Build(sto, pts, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sto, tr, pts
}

// TestEngineMatchesDirectQueries checks that every query kind routed
// through the pool returns exactly what a direct single-session call
// returns, including the simulated cost.
func TestEngineMatchesDirectQueries(t *testing.T) {
	sto, tr, pts := buildTree(t, 1, 3000, 8)
	e := New(sto, tr, 4)
	defer e.Close()

	r := rand.New(rand.NewSource(2))
	queries := randPoints(r, 30, 8)
	batch := make([]Query, 0, len(queries)*2+1)
	for _, q := range queries {
		batch = append(batch, Query{Kind: KNN, Point: q, K: 5})
		batch = append(batch, Query{Kind: Range, Point: q, Eps: 0.4})
	}
	w := vec.MBR{
		Lo: vec.Point{0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2},
		Hi: vec.Point{0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7},
	}
	batch = append(batch, Query{Kind: Window, Window: w})

	results := e.SubmitBatch(batch)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		s := sto.NewSession()
		var want []vec.Neighbor
		var err error
		switch batch[i].Kind {
		case KNN:
			want, err = tr.KNN(s, batch[i].Point, batch[i].K)
		case Range:
			want, err = tr.RangeSearch(s, batch[i].Point, batch[i].Eps)
		case Window:
			want, err = tr.WindowQuery(s, batch[i].Window)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(res.Neighbors) {
			t.Fatalf("query %d (%v): engine %d results, direct %d",
				i, batch[i].Kind, len(res.Neighbors), len(want))
		}
		for j := range want {
			if want[j].ID != res.Neighbors[j].ID || want[j].Dist != res.Neighbors[j].Dist {
				t.Fatalf("query %d result %d: engine %+v, direct %+v",
					i, j, res.Neighbors[j], want[j])
			}
		}
		if res.SimTime != s.Time() {
			t.Fatalf("query %d: engine sim time %v, direct %v", i, res.SimTime, s.Time())
		}
	}
	_ = pts
}

// TestEngineSessionReuseIsClean verifies that a failed query does not
// poison the pooled session of a later query on the same worker.
func TestEngineSessionReuseIsClean(t *testing.T) {
	sto, tr, _ := buildTree(t, 3, 800, 4)
	e := New(sto, tr, 1) // one worker: the queries share one session
	defer e.Close()

	bad := e.Submit(Query{Kind: Kind(99)})
	if bad.Err == nil {
		t.Fatal("unknown kind should fail")
	}
	good := e.Submit(Query{Kind: KNN, Point: vec.Point{0.5, 0.5, 0.5, 0.5}, K: 3})
	if good.Err != nil {
		t.Fatalf("pooled session leaked failure: %v", good.Err)
	}
	if len(good.Neighbors) != 3 {
		t.Fatalf("got %d neighbors", len(good.Neighbors))
	}
}

// TestEngineTraceAndMetrics checks the observability integration: traces
// on demand, and registry counters/histograms reflecting the run.
func TestEngineTraceAndMetrics(t *testing.T) {
	sto, tr, _ := buildTree(t, 4, 2000, 6)
	reg := &obs.Registry{}
	e := New(sto, tr, 2, WithRegistry(reg))
	defer e.Close()

	res := e.Submit(Query{Kind: KNN, Point: vec.Point{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, K: 4, Trace: true})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Trace == nil || res.Trace.PagesRead == 0 {
		t.Fatalf("expected a populated trace, got %+v", res.Trace)
	}
	plain := e.Submit(Query{Kind: KNN, Point: vec.Point{0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, K: 4})
	if plain.Trace != nil {
		t.Fatal("trace returned without being requested")
	}

	if got := reg.Counter("engine.queries").Value(); got != 2 {
		t.Fatalf("queries counter = %d, want 2", got)
	}
	if got := reg.Gauge("engine.queue_depth").Value(); got != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", got)
	}
	if snap := reg.Histogram("engine.sim_latency_seconds").Snapshot(); snap.Count != 2 || snap.Max <= 0 {
		t.Fatalf("latency histogram %+v", snap)
	}
}

// TestEngineOverXTree drives the X-tree's read path from many workers
// at once (its RWMutex audit under -race) and checks the results against
// direct single-session queries.
func TestEngineOverXTree(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 2000, 6)
	sto := store.NewSim(store.DefaultConfig())
	xt, err := xtree.Build(sto, pts, xtree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := New(sto, xt, 8)
	defer e.Close()

	queries := randPoints(r, 40, 6)
	batch := make([]Query, len(queries))
	for i, q := range queries {
		batch[i] = Query{Kind: KNN, Point: q, K: 4}
	}
	for i, res := range e.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, err := xt.KNN(sto.NewSession(), queries[i], 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(res.Neighbors) {
			t.Fatalf("query %d: engine %d results, direct %d", i, len(res.Neighbors), len(want))
		}
		for j := range want {
			if want[j].ID != res.Neighbors[j].ID {
				t.Fatalf("query %d result %d: engine ID %d, direct %d",
					i, j, res.Neighbors[j].ID, want[j].ID)
			}
		}
	}
}

// TestEngineCloseSemantics checks graceful drain and post-close errors.
func TestEngineCloseSemantics(t *testing.T) {
	sto, tr, _ := buildTree(t, 7, 600, 4)
	e := New(sto, tr, 2)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.Submit(Query{Kind: KNN, Point: vec.Point{0.3, 0.3, 0.3, 0.3}, K: 2})
			if res.Err != nil && res.Err != ErrClosed {
				t.Errorf("unexpected error: %v", res.Err)
			}
		}()
	}
	wg.Wait()
	e.Close()
	e.Close() // idempotent
	if res := e.Submit(Query{Kind: KNN, Point: vec.Point{0.3, 0.3, 0.3, 0.3}, K: 2}); res.Err != ErrClosed {
		t.Fatalf("post-close submit: %v, want ErrClosed", res.Err)
	}
	if res := e.SubmitBatch([]Query{{Kind: KNN, Point: vec.Point{0.1, 0.1, 0.1, 0.1}, K: 1}}); res[0].Err != ErrClosed {
		t.Fatalf("post-close batch: %v, want ErrClosed", res[0].Err)
	}
}

// mixedBatch draws n queries of the three kinds in turn.
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

// TestEngineQueryValidation checks that malformed queries are rejected
// at submission with the typed ErrInvalidQuery, never reaching the
// execution pipeline.
func TestEngineQueryValidation(t *testing.T) {
	sto, tr, _ := buildTree(t, 48, 500, 4)
	e := New(sto, tr, 2)
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

// TestEngineAnswersDuringReoptimize runs reorganizations concurrently
// with a mixed batch: a query holds its epoch for its whole run, so
// every query must answer exactly against one generation or another.
func TestEngineAnswersDuringReoptimize(t *testing.T) {
	sto, tr, _ := buildTree(t, 51, 3000, 6)
	e := New(sto, tr, 4)
	defer e.Close()

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
