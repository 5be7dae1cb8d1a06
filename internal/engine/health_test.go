package engine

import (
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// TestEngineHealthSnapshot pins the readiness surface routing layers
// (internal/shard) depend on: a fresh engine is Ready with its counters
// at zero, served and failed queries move the counters, and Close flips
// the snapshot to not-Ready permanently.
func TestEngineHealthSnapshot(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	calls := 0
	idx := &stubIndex{fn: func(s *store.Session) {
		calls++
		if calls == 1 {
			panic("first query dies")
		}
	}}
	e := New(sto, idx, 3)

	h := e.Health()
	if !h.Ready() || h.Closed {
		t.Fatalf("fresh engine health %+v", h)
	}
	if h.Workers != 3 {
		t.Fatalf("health workers = %d, want 3", h.Workers)
	}
	if h.Queries != 0 || h.Failures != 0 || h.Panics != 0 {
		t.Fatalf("fresh engine counted work: %+v", h)
	}

	bad := e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1})
	if bad.Err == nil {
		t.Fatal("panicking query should fail")
	}
	good := e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1})
	if good.Err != nil {
		t.Fatalf("second query: %v", good.Err)
	}
	h = e.Health()
	if h.Queries != 2 || h.Failures != 1 || h.Panics != 1 {
		t.Fatalf("after one panic and one success: %+v", h)
	}
	if !h.Ready() {
		t.Fatal("engine with failures must still be Ready: failures are not closure")
	}

	e.Close()
	h = e.Health()
	if h.Ready() || !h.Closed {
		t.Fatalf("closed engine health %+v", h)
	}
}
