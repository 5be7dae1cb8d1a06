package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quantize"
	"repro/internal/vec"
)

var metrics = []vec.Metric{vec.Euclidean, vec.Maximum}

// randGrid builds a random grid over dim dimensions; roughly one in
// three grids gets at least one degenerate (zero-extent) dimension.
func randGrid(rng *rand.Rand, dim, bits int) quantize.Grid {
	lo := make(vec.Point, dim)
	hi := make(vec.Point, dim)
	for i := 0; i < dim; i++ {
		a := rng.Float32()*20 - 10
		b := a + rng.Float32()*5
		if rng.Intn(6) == 0 {
			b = a // degenerate dimension
		}
		lo[i], hi[i] = a, b
	}
	return quantize.NewGrid(vec.MBR{Lo: lo, Hi: hi}, bits)
}

func randPointIn(rng *rand.Rand, m vec.MBR) vec.Point {
	p := make(vec.Point, m.Dim())
	for i := range p {
		// Mostly inside the MBR, sometimes outside (Encode clamps).
		p[i] = m.Lo[i] + float32(m.Side(i))*(rng.Float32()*1.2-0.1)
	}
	return p
}

// checkEquivalence asserts that the kernel bounds for one (grid, query,
// point) triple are bit-identical to the naive Grid math, for all
// metrics and both early-abandon outcomes.
func checkEquivalence(t *testing.T, rng *rand.Rand, g quantize.Grid, count int) {
	t.Helper()
	dim := g.Dim()
	q := randPointIn(rng, g.MBR)
	p := randPointIn(rng, g.MBR)
	cells := g.Encode(p, nil)
	var a Arena
	for _, met := range metrics {
		wantLB := g.MinDist(q, cells, met)
		wantUB := g.MaxDist(q, cells, met)
		tb := a.Tables(g, q, met, count)
		// Infinite thresholds never abandon: the exact bounds.
		if lb, ub, pruned := tb.BoundsPruned(cells, math.Inf(1), math.Inf(1)); pruned || lb != wantLB || ub != wantUB {
			t.Fatalf("BoundsPruned(+Inf) mismatch (bits=%d dim=%d met=%v useTab=%v): got (%v,%v,%v) want (%v,%v)",
				g.Bits, dim, met, tb.useTab, lb, ub, pruned, wantLB, wantUB)
		}
		lb, ub := tb.Bounds(cells)
		if lb != wantLB || ub != wantUB {
			t.Fatalf("Bounds mismatch (bits=%d met=%v): got (%v,%v) want (%v,%v)",
				g.Bits, met, lb, ub, wantLB, wantUB)
		}

		// Early-abandon must either report exact values or prove that
		// both bounds clear their thresholds.
		prune := wantLB * (0.5 + rng.Float64())
		ubCap := wantUB * (0.5 + rng.Float64())
		lb2, ub2, pruned := tb.BoundsPruned(cells, SqThreshold(met, prune), SqThreshold(met, ubCap))
		if pruned {
			if wantLB < prune || wantUB < ubCap {
				t.Fatalf("BoundsPruned wrongly pruned (bits=%d met=%v): lb %v < %v or ub %v < %v",
					g.Bits, met, wantLB, prune, wantUB, ubCap)
			}
		} else if lb2 != wantLB || ub2 != wantUB {
			t.Fatalf("BoundsPruned inexact (bits=%d met=%v): got (%v,%v) want (%v,%v)",
				g.Bits, met, lb2, ub2, wantLB, wantUB)
		}
		lb3, pruned3 := tb.MinDistPruned(cells, SqThreshold(met, prune))
		if pruned3 {
			if wantLB < prune {
				t.Fatalf("MinDistPruned wrongly pruned (met=%v): %v < %v", met, wantLB, prune)
			}
		} else if lb3 != wantLB {
			t.Fatalf("MinDistPruned inexact (met=%v): got %v want %v", met, lb3, wantLB)
		}
	}

	// Window table vs the naive CellBox intersection.
	w := vec.MBR{Lo: randPointIn(rng, g.MBR), Hi: randPointIn(rng, g.MBR)}
	for i := 0; i < dim; i++ {
		if w.Lo[i] > w.Hi[i] {
			w.Lo[i], w.Hi[i] = w.Hi[i], w.Lo[i]
		}
	}
	wt := a.Window(g, w, count)
	want := w.Intersects(g.CellBox(cells))
	if got := wt.Hits(cells); got != want {
		t.Fatalf("Window mismatch (bits=%d dim=%d useTab=%v): got %v want %v",
			g.Bits, dim, wt.useTab, got, want)
	}
}

// TestTablesMatchGrid sweeps every bit width, both kernel paths (tables
// and precomputed edges), all metrics, and degenerate MBR dimensions,
// asserting exact float64 equality with Grid.MinDist/MaxDist.
func TestTablesMatchGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range quantize.Levels {
		for _, count := range []int{-1, 0} { // -1 forces tables (g ≤ 8), 0 the edge path where the cutoff allows
			for iter := 0; iter < 200; iter++ {
				dim := 1 + rng.Intn(24)
				checkEquivalence(t, rng, randGrid(rng, dim, bits), count)
			}
		}
	}
}

// TestTablesDegenerateGrid pins the all-degenerate corner: every
// dimension zero-extent, query on and off the point.
func TestTablesDegenerateGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		dim := 1 + rng.Intn(8)
		lo := make(vec.Point, dim)
		for i := range lo {
			lo[i] = rng.Float32()
		}
		m := vec.MBR{Lo: lo, Hi: lo.Clone()}
		for _, bits := range quantize.Levels {
			checkEquivalence(t, rng, quantize.NewGrid(m, bits), -1)
		}
	}
}

// FuzzTablesEquivalence drives the same equivalence property from fuzzed
// inputs: any (seed, bits index, dim) combination must keep the kernel
// bit-identical to the naive Grid math.
func FuzzTablesEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4))
	f.Add(int64(7), uint8(3), uint8(16))
	f.Add(int64(42), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, bitsIdx, dim uint8) {
		rng := rand.New(rand.NewSource(seed))
		bits := quantize.Levels[int(bitsIdx)%len(quantize.Levels)]
		d := 1 + int(dim)%32
		count := -1
		if seed%2 == 0 {
			count = 0
		}
		checkEquivalence(t, rng, randGrid(rng, d, bits), count)
	})
}

func TestSqThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 10000; iter++ {
		thresh := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		T := SqThreshold(vec.Euclidean, thresh)
		if math.Sqrt(T) < thresh {
			t.Fatalf("SqThreshold(%v) = %v: sqrt %v < thresh", thresh, T, math.Sqrt(T))
		}
		// One ulp below T must not satisfy an acc >= T test; no exactness
		// requirement there (the implication is one-directional).
	}
	if !math.IsInf(SqThreshold(vec.Euclidean, math.Inf(1)), 1) {
		t.Fatal("SqThreshold(+Inf) must stay +Inf")
	}
	if got := SqThreshold(vec.Maximum, 3.5); got != 3.5 {
		t.Fatalf("non-Euclidean threshold must pass through, got %v", got)
	}
}
