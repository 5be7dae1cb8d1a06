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

// TestWritesKeepPoolWarm bounds what a read pays after a write on the
// simulated clock: nothing for the blocks the write produced. The pool
// is attached after the build, with room for more than two generations.
// An insert rewrites the directory and one page out of place; a KNN at
// the inserted point then reads the directory with no seek and no
// backend block, and the rewritten page's quantized and exact blocks are
// pool hits. After Reoptimize, a KNN reads no backend block of the new
// generation's files.
func TestWritesKeepPoolWarm(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	pts := randPoints(r, 4000, 8)
	sto := store.NewSim(store.DefaultConfig())
	tree, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sto.SetCache(4 * int64(sto.TotalBlocks()*sto.Config().BlockSize))

	before := tree.load()
	p := randPoints(r, 1, 8)[0]
	if err := tree.Insert(sto.NewSession(), p, 1<<20); err != nil {
		t.Fatal(err)
	}
	after := tree.load()
	rewritten := -1
	for i := range before.entries {
		if after.entries[i].QPos != before.entries[i].QPos {
			rewritten = i
		}
	}
	if rewritten < 0 {
		t.Fatal("the insert rewrote no page")
	}
	e := after.entries[rewritten]

	var tr Trace
	s := traced(sto, &tr)
	nbs, err := tree.KNN(s, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if nbs[0].ID != 1<<20 || nbs[0].Dist != 0 {
		t.Fatalf("KNN at the inserted point answered %+v first", nbs[0])
	}
	traceMatchesSession(t, &tr, s)
	if dir := tr.Level(DirFileName); dir.Seeks != 0 || dir.Blocks != 0 || dir.CachedBlocks != after.dirBlocks {
		t.Fatalf("directory after an insert: %d seeks, %d backend blocks, %d pool hits; want 0, 0, %d",
			dir.Seeks, dir.Blocks, dir.CachedBlocks, after.dirBlocks)
	}
	// Only the insert's blocks were resident before this query, and a
	// query reads each block once, so its hits on a level are the
	// rewritten page's blocks.
	if q := tr.Level(QFileName); q.CachedBlocks < 1 {
		t.Fatalf("rewritten quantized page: %d pool hits, want 1", q.CachedBlocks)
	}
	if e.EBlocks == 0 {
		t.Fatal("the rewritten page has no exact page")
	}
	if x := tr.Level(EFileName); x.CachedBlocks < int(e.EBlocks) {
		t.Fatalf("rewritten exact page: %d pool hits, want %d", x.CachedBlocks, e.EBlocks)
	}

	if err := tree.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	tr = Trace{}
	s = traced(sto, &tr)
	if _, err := tree.KNN(s, p, 5); err != nil {
		t.Fatal(err)
	}
	traceMatchesSession(t, &tr, s)
	newGen := 0
	for _, l := range tr.Levels {
		if !strings.HasSuffix(l.File, ".g1") {
			continue
		}
		newGen += l.CachedBlocks
		if l.Seeks != 0 || l.Blocks != 0 {
			t.Fatalf("KNN after Reoptimize read %s from the backend: %d seeks, %d blocks", l.File, l.Seeks, l.Blocks)
		}
	}
	if newGen == 0 {
		t.Fatalf("KNN after Reoptimize read no block of the new generation:\n%s", tr.Format())
	}
}
