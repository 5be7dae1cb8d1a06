package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// traceMatchesSession asserts the acceptance criterion of the
// observability layer: the per-level counters of a query trace sum to
// the session's aggregate Stats exactly.
func traceMatchesSession(t *testing.T, tr *Trace, s *store.Session) {
	t.Helper()
	seeks, blocks, reads, cpu := tr.Totals()
	if seeks != s.Stats.Seeks || blocks != s.Stats.BlocksRead || reads != s.Stats.Reads {
		t.Fatalf("trace totals (%d seeks %d blocks %d reads) != session stats %v",
			seeks, blocks, reads, s.Stats)
	}
	if math.Abs(cpu-s.Stats.CPUSeconds) > 1e-12 {
		t.Fatalf("trace cpu %g != session cpu %g", cpu, s.Stats.CPUSeconds)
	}
}

// traced returns a fresh session of sto that records into tr.
func traced(sto *store.Store, tr *Trace) *store.Session {
	s := sto.NewSession()
	s.SetTrace(tr)
	return s
}

func TestTraceSumsToSessionStats(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 4000, 8)
	q := randPoints(r, 1, 8)[0]

	sto, err := store.OpenFileStore(t.TempDir(), store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto.Close()
	tree, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("knn", func(t *testing.T) {
		var tr Trace
		s := traced(sto, &tr)
		if _, err := tree.KNN(s, q, 10); err != nil {
			t.Fatal(err)
		}
		traceMatchesSession(t, &tr, s)
		if tr.PagesRead == 0 || len(tr.Batches) == 0 {
			t.Fatalf("no pages/batches recorded: %d / %d", tr.PagesRead, len(tr.Batches))
		}
		if tr.Label != "knn k=10" {
			t.Fatalf("label %q", tr.Label)
		}
		out := tr.Format()
		for _, want := range []string{DirFileName, QFileName, EFileName} {
			if !strings.Contains(out, want) {
				t.Fatalf("Format missing level %q:\n%s", want, out)
			}
		}
	})

	t.Run("range", func(t *testing.T) {
		var tr Trace
		s := traced(sto, &tr)
		if _, err := tree.RangeSearch(s, q, 0.4); err != nil {
			t.Fatal(err)
		}
		traceMatchesSession(t, &tr, s)
	})

	t.Run("window", func(t *testing.T) {
		w := vec.MBR{Lo: make(vec.Point, 8), Hi: make(vec.Point, 8)}
		for i := range w.Lo {
			w.Lo[i], w.Hi[i] = 0.2, 0.6
		}
		var tr Trace
		s := traced(sto, &tr)
		if _, err := tree.WindowQuery(s, w); err != nil {
			t.Fatal(err)
		}
		traceMatchesSession(t, &tr, s)
	})
}

// TestTraceWithBufferPool checks that pool hits appear as CachedBlocks
// (outside the charged totals) so the trace still sums to the session's
// Stats exactly when a cache serves part of the query.
func TestTraceWithBufferPool(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 3000, 6)
	q := randPoints(r, 1, 6)[0]

	sto := store.NewSim(store.DefaultConfig())
	sto.SetCache(1 << 20)
	tree, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Warm the pool with one query, then trace a second one.
	if _, err := tree.KNN(sto.NewSession(), q, 5); err != nil {
		t.Fatal(err)
	}
	var tr Trace
	s := traced(sto, &tr)
	if _, err := tree.KNN(s, q, 5); err != nil {
		t.Fatal(err)
	}
	traceMatchesSession(t, &tr, s)
	if tr.CachedBlocks() == 0 {
		t.Fatal("expected pool hits in the warmed trace")
	}
}
