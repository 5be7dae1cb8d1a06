package vafile

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	return pts
}

func skewedPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			v := r.Float64()
			p[j] = float32(v * v * v) // mass concentrated near 0
		}
		pts[i] = p
	}
	return pts
}

// mustBuild builds a VA-file or fails the test.
func mustBuild(t *testing.T, sto *store.Store, pts []vec.Point, opt Options) *VAFile {
	t.Helper()
	v, err := Build(sto, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// mustKNN runs a KNN query on a fresh session or fails the test.
func mustKNN(t *testing.T, sto *store.Store, v *VAFile, q vec.Point, k int) []vec.Neighbor {
	t.Helper()
	res, err := v.KNN(sto.NewSession(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func bruteKNN(pts []vec.Point, q vec.Point, k int, met vec.Metric) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = met.Dist(q, p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestKNNMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum} {
		for _, uniform := range []bool{false, true} {
			for _, bits := range []int{2, 4, 8} {
				pts := randPoints(r, 2000, 8)
				sto := store.NewSim(store.DefaultConfig())
				v := mustBuild(t, sto, pts, Options{Metric: met, Bits: bits, Uniform: uniform})
				for _, q := range randPoints(r, 8, 8) {
					got := mustKNN(t, sto, v, q, 5)
					want := bruteKNN(pts, q, 5, met)
					for i := range want {
						if math.Abs(got[i].Dist-want[i]) > 1e-5 {
							t.Fatalf("met=%v bits=%d uniform=%v: dist %.7f want %.7f",
								met, bits, uniform, got[i].Dist, want[i])
						}
					}
				}
			}
		}
	}
}

func TestKNNOnSkewedData(t *testing.T) {
	// Quantile boundaries must stay correct when data is heavily skewed.
	r := rand.New(rand.NewSource(2))
	pts := skewedPoints(r, 3000, 6)
	sto := store.NewSim(store.DefaultConfig())
	v := mustBuild(t, sto, pts, Options{Metric: vec.Euclidean, Bits: 5})
	for _, q := range skewedPoints(r, 10, 6) {
		got := mustKNN(t, sto, v, q, 3)
		want := bruteKNN(pts, q, 3, vec.Euclidean)
		for i := range want {
			if math.Abs(got[i].Dist-want[i]) > 1e-5 {
				t.Fatalf("dist %.7f want %.7f", got[i].Dist, want[i])
			}
		}
	}
}

func TestDuplicateValuesAndDegenerateDims(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 500, 3)
	for i := range pts {
		pts[i][1] = 0.5                 // a constant dimension
		pts[i][2] = float32(i%4) * 0.25 // few distinct values
	}
	sto := store.NewSim(store.DefaultConfig())
	v := mustBuild(t, sto, pts, DefaultOptions())
	for _, q := range randPoints(r, 5, 3) {
		got := mustKNN(t, sto, v, q, 4)
		want := bruteKNN(pts, q, 4, vec.Euclidean)
		for i := range want {
			if math.Abs(got[i].Dist-want[i]) > 1e-5 {
				t.Fatalf("dist %.7f want %.7f", got[i].Dist, want[i])
			}
		}
	}
}

func TestRangeSearch(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 1500, 5)
	sto := store.NewSim(store.DefaultConfig())
	v := mustBuild(t, sto, pts, DefaultOptions())
	q := randPoints(r, 1, 5)[0]
	eps := 0.35
	got, err := v.RangeSearch(sto.NewSession(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, p := range pts {
		if vec.Euclidean.Dist(q, p) <= eps {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("got %d results, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestPhase1ScansWholeApproxFileOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 4000, 10)
	sto := store.NewSim(store.DefaultConfig())
	v := mustBuild(t, sto, pts, DefaultOptions())
	s := sto.NewSession()
	if _, err := v.KNN(s, randPoints(r, 1, 10)[0], 1); err != nil {
		t.Fatal(err)
	}
	approxBlocks := v.aFile.Blocks()
	if s.Stats.BlocksRead < approxBlocks {
		t.Fatalf("read %d blocks, approximation file has %d", s.Stats.BlocksRead, approxBlocks)
	}
	// Phase 2 should visit only a small candidate fraction.
	if extra := s.Stats.BlocksRead - approxBlocks; extra > 100 {
		t.Fatalf("phase 2 read %d extra blocks — filtering broken", extra)
	}
}

func TestMoreBitsShrinkCandidateSet(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randPoints(r, 4000, 12)
	q := randPoints(r, 1, 12)[0]
	refines := func(bits int) int {
		sto := store.NewSim(store.DefaultConfig())
		v := mustBuild(t, sto, pts, Options{Metric: vec.Euclidean, Bits: bits})
		s := sto.NewSession()
		if _, err := v.KNN(s, q, 1); err != nil {
			t.Fatal(err)
		}
		return s.Stats.Seeks // 1 (scan) + #exact look-ups
	}
	if r2, r8 := refines(2), refines(8); r8 > r2 {
		t.Fatalf("8-bit refinements %d exceed 2-bit %d", r8, r2)
	}
}

func TestLowerUpperAgreesWithTables(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 500, 7)
	for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum, vec.Manhattan} {
		sto := store.NewSim(store.DefaultConfig())
		v := mustBuild(t, sto, pts, Options{Metric: met, Bits: 4})
		q := randPoints(r, 1, 7)[0]
		dt := v.buildTables(q)
		cells := make([]uint32, v.dim)
		for _, p := range pts[:50] {
			for j := 0; j < v.dim; j++ {
				cells[j] = v.cellOf(j, p[j])
			}
			lb1, ub1 := v.lowerUpper(q, cells)
			lb2, ub2 := dt.bounds(cells)
			if math.Abs(lb1-lb2) > 1e-9 || math.Abs(ub1-ub2) > 1e-9 {
				t.Fatalf("%v: direct (%f,%f) vs tables (%f,%f)", met, lb1, ub1, lb2, ub2)
			}
		}
	}
}

// Property: every point lies inside its assigned cell, so lb ≤ dist ≤ ub.
func TestBoundsBracketTrueDistances(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := skewedPoints(r, 1000, 5)
	sto := store.NewSim(store.DefaultConfig())
	v := mustBuild(t, sto, pts, Options{Metric: vec.Euclidean, Bits: 3})
	q := randPoints(r, 1, 5)[0]
	dt := v.buildTables(q)
	cells := make([]uint32, v.dim)
	for _, p := range pts {
		for j := 0; j < v.dim; j++ {
			cells[j] = v.cellOf(j, p[j])
		}
		lb, ub := dt.bounds(cells)
		truth := vec.Euclidean.Dist(q, p)
		if truth < lb-1e-5 || truth > ub+1e-5 {
			t.Fatalf("dist %f outside [%f, %f]", truth, lb, ub)
		}
	}
}

func TestBitsClampingAndAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 100, 4)
	sto := store.NewSim(store.DefaultConfig())
	v := mustBuild(t, sto, pts, Options{Metric: vec.Euclidean, Bits: 99})
	if v.Bits() != 16 {
		t.Fatalf("bits clamped to %d, want 16", v.Bits())
	}
	v2 := mustBuild(t, store.NewSim(store.DefaultConfig()), pts, Options{Metric: vec.Euclidean})
	if v2.Bits() != 4 {
		t.Fatalf("default bits %d, want 4", v2.Bits())
	}
	if v2.Len() != 100 || v2.Dim() != 4 {
		t.Fatal("accessors wrong")
	}
	// Approximation file is the expected compressed size.
	wantBits := 100 * 4 * 4
	if got := quantize.PackedSize(100, 4, 4); got != (wantBits+7)/8 {
		t.Fatalf("packed size %d", got)
	}
}
