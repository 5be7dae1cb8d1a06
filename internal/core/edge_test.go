package core

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// TestHeavyDuplicates: many identical points must quantize, search and
// refine correctly (cells collapse to a single value; MBRs degenerate).
func TestHeavyDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var pts []vec.Point
	proto := vec.Point{0.25, 0.5, 0.75, 0.1}
	for i := 0; i < 2000; i++ {
		if i%4 == 0 {
			pts = append(pts, proto.Clone())
		} else {
			pts = append(pts, randPoints(r, 1, 4)[0])
		}
	}
	tr := buildTree(t, pts, DefaultOptions())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res := mustKNN(t, tr, proto, 10)
	if len(res) != 10 {
		t.Fatalf("%d results", len(res))
	}
	for i := 0; i < 10; i++ {
		if res[i].Dist != 0 {
			t.Fatalf("result %d at dist %f, want 0 (500 duplicates exist)", i, res[i].Dist)
		}
	}
}

// TestAllIdenticalPoints: the degenerate extreme — every point the same.
func TestAllIdenticalPoints(t *testing.T) {
	pts := make([]vec.Point, 500)
	for i := range pts {
		pts[i] = vec.Point{1, 2, 3}
	}
	tr := buildTree(t, pts, DefaultOptions())
	res := mustKNN(t, tr, vec.Point{1, 2, 3}, 5)
	if len(res) != 5 || res[4].Dist != 0 {
		t.Fatalf("results: %+v", res)
	}
	got := mustRange(t, tr, vec.Point{0, 0, 0}, 10)
	if len(got) != 500 {
		t.Fatalf("range found %d", len(got))
	}
}

// TestConstantDimension: one coordinate constant across the database
// (degenerate MBR side at every level).
func TestConstantDimension(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 3000, 5)
	for i := range pts {
		pts[i][2] = 0.5
	}
	tr := buildTree(t, pts, DefaultOptions())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkKNN(t, tr, pts, randPoints(r, 8, 5), 3, vec.Euclidean)
}

// TestSinglePointTree and tiny trees.
func TestTinyTrees(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		pts := make([]vec.Point, n)
		for i := range pts {
			pts[i] = vec.Point{float32(i), float32(i * 2)}
		}
		tr := buildTree(t, pts, DefaultOptions())
		if tr.Len() != n {
			t.Fatalf("n=%d: Len %d", n, tr.Len())
		}
		res := mustKNN(t, tr, vec.Point{0, 0}, n)
		if len(res) != n {
			t.Fatalf("n=%d: %d results", n, len(res))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestQueryOutsideDataSpace: queries far from every point.
func TestQueryOutsideDataSpace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 2000, 6)
	tr := buildTree(t, pts, DefaultOptions())
	q := vec.Point{100, 100, 100, 100, 100, 100}
	got := mustKNN(t, tr, q, 3)
	want := bruteKNN(pts, q, 3, vec.Euclidean)
	for i := range got {
		if diff := got[i].Dist - want[i]; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("far query: %f vs %f", got[i].Dist, want[i])
		}
	}
	if res := mustRange(t, tr, q, 1); len(res) != 0 {
		t.Fatalf("far range query found %d", len(res))
	}
}

// TestLargePageBlocks: multi-block quantized pages.
func TestLargePageBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 4000, 8)
	opt := DefaultOptions()
	opt.QPageBlocks = 4
	tr := buildTree(t, pts, opt)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkKNN(t, tr, pts, randPoints(r, 6, 8), 3, vec.Euclidean)
	// Larger pages hold more points: fewer pages than with 1-block pages.
	small := buildTree(t, pts, DefaultOptions())
	if tr.NumPages() >= small.NumPages() {
		t.Fatalf("4-block pages (%d) should be fewer than 1-block pages (%d)",
			tr.NumPages(), small.NumPages())
	}
}

// TestManhattanMetricEndToEnd exercises the third supported metric.
func TestManhattanMetricEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 1500, 6)
	opt := DefaultOptions()
	opt.Metric = vec.Manhattan
	tr := buildTree(t, pts, opt)
	checkKNN(t, tr, pts, randPoints(r, 6, 6), 3, vec.Manhattan)
}

// TestHighDimensionalBuild sanity-checks a dimensionality above the
// paper's range.
func TestHighDimensionalBuild(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randPoints(r, 1500, 40)
	tr := buildTree(t, pts, DefaultOptions())
	checkKNN(t, tr, pts, randPoints(r, 4, 40), 2, vec.Euclidean)
}

// TestDeleteNonexistent covers the negative paths of Delete.
func TestDeleteNonexistent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 500, 3)
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()
	if ok, err := tr.Delete(s, vec.Point{5, 5, 5}, 0); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("deleted a point outside every MBR")
	}
	if ok, err := tr.Delete(s, pts[0], 99999); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("deleted with a wrong id")
	}
	if ok, err := tr.Delete(s, vec.Point{1, 2}, 0); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("deleted with a wrong dimension")
	}
	if tr.Len() != 500 {
		t.Fatal("failed deletes changed Len")
	}
}

// TestSessionIsolation: concurrent sessions on one disk do not interfere
// with each other's accounting.
func TestSessionIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 2000, 8)
	tr := buildTree(t, pts, DefaultOptions())
	q := randPoints(r, 1, 8)[0]

	s1 := tr.sto.NewSession()
	if _, err := tr.KNN(s1, q, 1); err != nil {
		t.Fatal(err)
	}
	first := s1.Stats

	// Run the same query on many parallel sessions.
	done := make(chan store.Stats, 8)
	for i := 0; i < 8; i++ {
		go func() {
			s := tr.sto.NewSession()
			if _, err := tr.KNN(s, q, 1); err != nil {
				t.Error(err)
			}
			done <- s.Stats
		}()
	}
	for i := 0; i < 8; i++ {
		st := <-done
		if st != first {
			t.Fatalf("session stats diverged: %+v vs %+v", st, first)
		}
	}
}

// TestFixedBitsAblation: the fixed-level variant must stay exact and use
// exactly one quantization level.
func TestFixedBitsAblation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 3000, 8)
	for _, bits := range []int{1, 2, 4, 8} {
		opt := DefaultOptions()
		opt.FixedBits = bits
		tr := buildTree(t, pts, opt)
		st := tr.Stats()
		if len(st.BitsHistogram) != 1 || st.BitsHistogram[bits] == 0 {
			t.Fatalf("bits=%d: histogram %v", bits, st.BitsHistogram)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		checkKNN(t, tr, pts, randPoints(r, 4, 8), 2, vec.Euclidean)
	}
}

func TestDescribePages(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts := randPoints(r, 3000, 6)
	tr := buildTree(t, pts, DefaultOptions())
	rows := tr.DescribePages()
	if len(rows) != tr.NumPages() {
		t.Fatalf("%d rows, %d pages", len(rows), tr.NumPages())
	}
	total := 0
	for _, row := range rows {
		total += row.Count
		if row.Bits < 1 || row.Bits > 32 || row.Volume < 0 {
			t.Fatalf("bad row: %+v", row)
		}
	}
	if total != tr.Len() {
		t.Fatalf("row counts sum to %d, want %d", total, tr.Len())
	}
}

// TestMergeOnDelete: heavy deletion should trigger the paper's
// "undo the split" maintenance, shrinking the live page count.
func TestMergeOnDelete(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := randPoints(r, 4000, 4)
	tr := buildTree(t, pts, DefaultOptions())
	before := tr.NumPages()
	s := tr.sto.NewSession()
	var remaining []vec.Point
	for i, p := range pts {
		if i%10 != 0 {
			if ok, err := tr.Delete(s, p, uint32(i)); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			} else if !ok {
				t.Fatalf("delete %d failed", i)
			}
		} else {
			remaining = append(remaining, p)
		}
	}
	after := tr.NumPages()
	if after >= before {
		t.Fatalf("pages did not shrink after 90%% deletion: %d -> %d", before, after)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range randPoints(r, 6, 4) {
		got := mustKNN(t, tr, q, 3)
		want := bruteKNN(remaining, q, 3, vec.Euclidean)
		for i := range got {
			if diff := got[i].Dist - want[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("query %d: %f vs %f", qi, got[i].Dist, want[i])
			}
		}
	}
}

// TestCostDecomposition: the trace's levels decompose an IQ-tree query
// into the paper's three cost components.
func TestCostDecomposition(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := randPoints(r, 5000, 12)
	tr := buildTree(t, pts, DefaultOptions())
	var tc Trace
	s := tr.sto.NewSession()
	s.SetTrace(&tc)
	if _, err := tr.KNN(s, randPoints(r, 1, 12)[0], 1); err != nil {
		t.Fatal(err)
	}

	level := func(file string) obs.LevelTrace {
		for _, l := range tc.Levels {
			if l.File == file {
				return *l
			}
		}
		return obs.LevelTrace{}
	}
	t1 := level(DirFileName)
	t2 := level(QFileName)
	t3 := level(EFileName)
	if t1.Blocks == 0 || t1.Seeks != 1 {
		t.Fatalf("T1st: %+v", t1)
	}
	if t2.Blocks == 0 {
		t.Fatalf("T2nd: %+v", t2)
	}
	sum := t1.Seeks + t2.Seeks + t3.Seeks
	if sum != s.Stats.Seeks {
		t.Fatalf("per-level seeks %d != total %d", sum, s.Stats.Seeks)
	}
	blocks := t1.Blocks + t2.Blocks + t3.Blocks
	if blocks != s.Stats.BlocksRead {
		t.Fatalf("per-level blocks %d != total %d", blocks, s.Stats.BlocksRead)
	}
	if len(tc.Levels) > 3 {
		t.Fatalf("a query touched %d levels, want at most the tree's 3", len(tc.Levels))
	}
}
