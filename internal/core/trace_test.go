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

// TestPoolKeepsUpperLevels gates the level-aware pool on the simulated
// clock. A WAL tree under the auto-reoptimize policy gets a pool that
// holds its directory and quantized files, with room for their growth
// and for the next generation's, but less than a quarter of its exact
// file; the pool is warmed by reading every directory and quantized block
// once. Inserts, deletes and traced KNNs then alternate through at least
// one reoptimization swap. No KNN may read a directory or quantized block
// of any generation from the backend: exact pages, on the evict-first
// list, give way first. And after an insert, the exact page version it
// superseded is gone from the pool, so reading it costs its blocks from
// the backend.
func TestPoolKeepsUpperLevels(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const dim, budget = 16, 64 // budget in blocks
	pts := randPoints(r, 20000, dim)
	opt := walTestOptions()
	opt.FixedBits = 1 // 32 exact blocks for every quantized one
	opt.AutoReoptimize = AutoReoptPolicy{GarbageRatio: 0.3}
	tree := buildWALTree(t, pts, opt)
	sto := tree.sto
	if ex := tree.eFile.Blocks(); 4*budget >= ex {
		t.Fatalf("a pool of %d blocks is not under a quarter of the %d exact blocks", budget, ex)
	}
	sto.SetCache(budget * int64(sto.Config().BlockSize))
	upper := func(name string) bool {
		return strings.HasPrefix(name, DirFileName) || strings.HasPrefix(name, QFileName)
	}
	warm := sto.NewSession()
	for _, f := range []*store.File{tree.dirFile, tree.qFile} {
		if _, err := warm.Read(f, 0, f.Blocks()); err != nil {
			t.Fatal(err)
		}
	}

	forgotten, peak, step := 0, 0, 0
	for ; tree.gen < 2; step++ {
		if step == 400 {
			t.Fatalf("%d swaps in %d steps, want 2", tree.gen, step)
		}
		before, eFile, running := tree.load(), tree.eFile, tree.ReoptimizeRunning()
		s := sto.NewSession()
		inserted := step%3 != 2
		if inserted {
			if err := tree.Insert(s, randPoints(r, 1, dim)[0], uint32(len(pts)+step)); err != nil {
				t.Fatal(err)
			}
		} else if found, err := tree.Delete(s, pts[step], uint32(step)); err != nil || !found {
			t.Fatalf("step %d: delete found %v, %v", step, found, err)
		}
		held := 0
		for _, name := range sto.Backend().Names() {
			if upper(name) || name == MetaFileName {
				held += sto.File(name).Blocks()
			}
		}
		if held >= budget {
			t.Fatalf("step %d: the upper levels hold %d blocks, more than the pool leaves room for", step, held)
		}
		peak = max(peak, held)

		// A run in flight reads its pinned page versions, superseded
		// ones included, and a swap removes the old generation, so the
		// superseded version is checked only with neither.
		if inserted && !running && tree.eFile == eFile {
			after := tree.load()
			for i, e := range before.entries {
				if e.EBlocks == 0 || after.entries[i].EPos == e.EPos {
					continue
				}
				var tr Trace
				if _, err := traced(sto, &tr).Read(eFile, int(e.EPos), int(e.EBlocks)); err != nil {
					t.Fatal(err)
				}
				if x := tr.Level(eFile.Name()); x.Blocks != int(e.EBlocks) || x.CachedBlocks != 0 {
					t.Fatalf("step %d: the superseded exact version of page %d read %d backend blocks and %d pool hits, want %d and 0",
						step, i, x.Blocks, x.CachedBlocks, e.EBlocks)
				}
				forgotten++
			}
		}

		var tr Trace
		ks := traced(sto, &tr)
		if _, err := tree.KNN(ks, randPoints(r, 1, dim)[0], 10); err != nil {
			t.Fatal(err)
		}
		traceMatchesSession(t, &tr, ks)
		hits := 0
		for _, l := range tr.Levels {
			if !upper(l.File) {
				continue
			}
			hits += l.CachedBlocks
			if l.Seeks != 0 || l.Blocks != 0 {
				t.Fatalf("step %d (%d swaps): the KNN read %s from the backend: %d seeks, %d blocks\n%s",
					step, tree.gen, l.File, l.Seeks, l.Blocks, tr.Format())
			}
		}
		if hits == 0 {
			t.Fatalf("step %d: the KNN read no directory or quantized block", step)
		}
	}
	if forgotten == 0 {
		t.Fatal("no insert superseded an exact page version outside a run")
	}
	t.Logf("%d steps, 2 swaps, upper levels at most %d of %d blocks, %d superseded exact versions read from the backend",
		step, peak, budget, forgotten)
}
