package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// TestSharedRestartsExhaustedTyped pins the typed failure of a shared
// query whose restart budget is exhausted by a writer reorganizing
// faster than queries complete: the error is errors.Is-able as both
// ErrTooManyRestarts and index.ErrStaleScan, and every exhaustion is
// counted in engine.shared.restarts_exhausted.
func TestSharedRestartsExhaustedTyped(t *testing.T) {
	sto, tr, _ := buildTree(t, 61, 3000, 6)
	reg := &obs.Registry{}
	e := New(sto, tr, 2, WithScanSharing(), WithRegistry(reg))
	// Zero restart budget: the first stale cursor fails the query. The
	// coordinator only reads maxRestarts after receiving a job, and the
	// queue send below happens after this write, so the override is
	// race-free.
	e.maxRestarts = 0
	defer e.Close()

	stop := make(chan struct{})
	var reopt sync.WaitGroup
	reopt.Add(1)
	go func() {
		defer reopt.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.Reoptimize(); err != nil {
				t.Errorf("reoptimize: %v", err)
				return
			}
		}
	}()

	r := rand.New(rand.NewSource(62))
	exhausted := 0
	for attempt := 0; attempt < 8 && exhausted == 0; attempt++ {
		for _, res := range e.SubmitBatch(mixedBatch(r, 32, 6)) {
			if res.Err == nil {
				continue
			}
			if !errors.Is(res.Err, ErrTooManyRestarts) {
				t.Fatalf("shared failure under tight reoptimize: %v, want ErrTooManyRestarts", res.Err)
			}
			if !errors.Is(res.Err, index.ErrStaleScan) {
				t.Fatalf("exhaustion error %v does not wrap index.ErrStaleScan", res.Err)
			}
			exhausted++
		}
	}
	close(stop)
	reopt.Wait()
	if t.Failed() {
		return
	}
	if exhausted == 0 {
		t.Skip("tight reoptimize loop never invalidated a cursor (single-core scheduling); nothing to assert")
	}
	if got := reg.Counter("engine.shared.restarts_exhausted").Value(); got < int64(exhausted) {
		t.Fatalf("engine.shared.restarts_exhausted = %d, want >= %d observed exhaustions", got, exhausted)
	}
}

// TestSharedLeaderFailureAccounting injects hard read errors under the
// shared pipeline (retries disabled, so every injected fault fails its
// leader's span fetch mid-round) and asserts the accounting contract
// survives leader failure: undelivered pages re-wanted under a new
// leader never double-count SharedPages, so every query's trace totals
// — failed leaders included — still equal its session stats exactly,
// and every survivor still answers exactly.
func TestSharedLeaderFailureAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	pts := randPoints(r, 4000, 8)
	fs := store.NewFaultStore(store.NewSimStore(store.DefaultConfig()), store.FaultConfig{
		Seed:    64,
		ReadErr: 0.03,
	})
	fs.SetEnabled(false) // build cleanly
	sto := store.Wrap(fs)
	tr, err := core.Build(sto, pts, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// No retries: an injected transient read error becomes a hard fetch
	// failure, killing the leader of the span mid-round.
	sto.SetRetryPolicy(store.RetryPolicy{})

	reg := &obs.Registry{}
	e := New(sto, tr, 32, WithScanSharing(), WithRegistry(reg))
	defer e.Close()

	// Near-identical queries: candidate pages overlap almost completely,
	// so spans have many co-attached followers and a failed leader leaves
	// undelivered pages for a successor to re-fetch.
	center := vec.Point{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	batch := make([]Query, 32)
	for i := range batch {
		q := make(vec.Point, len(center))
		for j := range q {
			q[j] = center[j] + (r.Float32()-0.5)*0.02
		}
		batch[i] = Query{Kind: KNN, Point: q, K: 5, Trace: true}
	}

	fs.SetEnabled(true)
	failures, sharedPages := 0, 0
	for attempt := 0; attempt < 6 && failures == 0; attempt++ {
		for i, res := range e.SubmitBatch(batch) {
			if res.Trace == nil {
				t.Fatalf("query %d: no trace", i)
			}
			seeks, blocks, reads, cpu := res.Trace.Totals()
			if seeks != res.Stats.Seeks || blocks != res.Stats.BlocksRead || reads != res.Stats.Reads {
				t.Fatalf("query %d (err=%v): trace totals (%d,%d,%d) != stats %+v — leader failure broke attribution",
					i, res.Err, seeks, blocks, reads, res.Stats)
			}
			if math.Abs(cpu-res.Stats.CPUSeconds) > 1e-9 {
				t.Fatalf("query %d: trace cpu %g != stats cpu %g", i, cpu, res.Stats.CPUSeconds)
			}
			sharedPages += res.Trace.SharedPages
			if res.Err != nil {
				if !errors.Is(res.Err, store.ErrTransient) {
					t.Fatalf("query %d failed outside the injected fault path: %v", i, res.Err)
				}
				failures++
				continue
			}
			// Survivors answer exactly despite co-scheduled leader deaths.
			fs.SetEnabled(false)
			want, err := tr.KNN(sto.NewSession(), batch[i].Point, batch[i].K)
			fs.SetEnabled(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Neighbors) != len(want) {
				t.Fatalf("query %d: %d results, want %d", i, len(res.Neighbors), len(want))
			}
			for j := range want {
				if res.Neighbors[j].ID != want[j].ID || res.Neighbors[j].Dist != want[j].Dist {
					t.Fatalf("query %d result %d diverged after leader failover", i, j)
				}
			}
		}
	}
	if failures == 0 {
		t.Fatal("fault injection never failed a leader; the test exercised nothing")
	}
	if sharedPages == 0 {
		t.Fatal("no shared reads recorded; spans had no followers, so leader failure was not exercised")
	}
}
