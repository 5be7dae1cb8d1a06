package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

func testModel(d int, met vec.Metric) *Model {
	lo := make(vec.Point, d)
	hi := make(vec.Point, d)
	for i := range hi {
		hi[i] = 1
	}
	return &Model{
		Disk:          store.DefaultConfig(),
		Metric:        met,
		Dim:           d,
		N:             100000,
		FractalDim:    float64(d),
		DataSpace:     vec.MBR{Lo: lo, Hi: hi},
		DirEntryBytes: 24 + 8*d,
		ExactBlocks:   1,
	}
}

func cube(d int, side float32) vec.MBR {
	lo := make(vec.Point, d)
	hi := make(vec.Point, d)
	for i := range hi {
		hi[i] = side
	}
	return vec.MBR{Lo: lo, Hi: hi}
}

func TestPointDensityUniform(t *testing.T) {
	m := testModel(4, vec.Euclidean)
	// 1000 points in a 0.5^4 box: density = 1000 / 0.0625 = 16000.
	rho := m.PointDensity(cube(4, 0.5), 1000)
	if math.Abs(rho-16000) > 1 {
		t.Fatalf("density %f, want 16000", rho)
	}
}

func TestNNRadiusContainsOneExpectedPoint(t *testing.T) {
	for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum} {
		m := testModel(6, met)
		box := cube(6, 0.5)
		count := 5000
		r := m.NNRadius(box, count)
		if r <= 0 {
			t.Fatalf("radius %f", r)
		}
		// The query ball of radius r at the local density must contain an
		// expectation of exactly one point: rho * V(r) == 1.
		rho := m.PointDensity(box, count)
		var vol float64
		if met == vec.Euclidean {
			vol = math.Pow(math.SqrtPi*r, 6) / math.Gamma(4)
		} else {
			vol = math.Pow(2*r, 6)
		}
		if math.Abs(rho*vol-1) > 1e-6 {
			t.Fatalf("%v: expected points in NN ball = %f, want 1", met, rho*vol)
		}
	}
}

// Property (paper Sec. 3.4 "Properties of the cost functions"): the
// refinement probability decreases monotonically in the quantization
// level, and the improvement per doubling shrinks (convexity); it is 0 at
// the exact level.
func TestRefinementProbabilityMonotoneConvex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum} {
		for trial := 0; trial < 50; trial++ {
			d := 2 + r.Intn(12)
			m := testModel(d, met)
			m.FractalDim = 1 + r.Float64()*float64(d-1)
			box := cube(d, float32(0.2+r.Float64()*0.5))
			count := 100 + r.Intn(2000)
			var probs []float64
			for _, g := range quantize.Levels {
				probs = append(probs, m.RefinementProbability(box, count, g))
			}
			last := probs[len(probs)-1]
			if last != 0 {
				t.Fatalf("P at 32 bits = %f, want 0", last)
			}
			for i := 1; i < len(probs); i++ {
				if probs[i] > probs[i-1]+1e-12 {
					t.Fatalf("%v d=%d: P not monotone: %v", met, d, probs)
				}
			}
			// Convexity in the level index (away from the clamp at 1):
			// improvements shrink as g doubles.
			for i := 2; i < len(probs)-1; i++ {
				if probs[i-1] >= 1 || probs[i-2] >= 1 {
					continue // clamped region
				}
				d1 := probs[i-2] - probs[i-1]
				d2 := probs[i-1] - probs[i]
				if d2 > d1+1e-9 {
					t.Fatalf("%v d=%d: improvements grow: %v", met, d, probs)
				}
			}
		}
	}
}

// Property: splitting a page (halving count and volume) never increases
// the total refinement cost at the doubled level — the variable-cost
// benefit of Sec. 3.5 is non-negative under the model's assumptions.
func TestSplitBenefitNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		d := 2 + r.Intn(10)
		m := testModel(d, vec.Euclidean)
		side := float32(0.2 + r.Float64()*0.6)
		box := cube(d, side)
		count := 256 + r.Intn(1024)
		g := []int{1, 2, 4, 8}[r.Intn(4)]
		parent := m.RefinementCost(box, count, g)
		// Split along dimension 0 at the midpoint.
		left := box.Clone()
		left.Hi[0] = side / 2
		children := 2 * m.RefinementCost(left, count/2, 2*g)
		if children > parent*1.0001+1e-12 {
			t.Fatalf("d=%d g=%d: children cost %g > parent %g", d, g, children, parent)
		}
	}
}

func TestDirectoryCostLinear(t *testing.T) {
	m := testModel(8, vec.Euclidean)
	if m.DirectoryCost(0) != 0 {
		t.Fatal("empty directory should cost 0")
	}
	c1 := m.DirectoryCost(1000)
	c2 := m.DirectoryCost(2000)
	// Linear in n up to the fixed seek.
	growth := (c2 - m.Disk.Seek) / (c1 - m.Disk.Seek)
	if math.Abs(growth-2) > 0.05 {
		t.Fatalf("directory cost growth %f, want ~2", growth)
	}
}

func TestExpectedPageAccessesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		d := 2 + r.Intn(14)
		m := testModel(d, vec.Euclidean)
		m.FractalDim = 1 + r.Float64()*float64(d-1)
		n := 10 + r.Intn(5000)
		k := m.ExpectedPageAccesses(n)
		if k < 1 || k > float64(n) {
			t.Fatalf("k = %f outside [1, %d]", k, n)
		}
	}
	if m := testModel(4, vec.Euclidean); m.ExpectedPageAccesses(0) != 0 {
		t.Fatal("no pages should give 0")
	}
}

func TestExpectedPageAccessesGrowsWithDimension(t *testing.T) {
	// The curse of dimensionality: for fixed n and N, higher dimension
	// means a larger fraction of pages must be read.
	kAt := func(d int) float64 {
		m := testModel(d, vec.Euclidean)
		return m.ExpectedPageAccesses(1000)
	}
	if !(kAt(2) < kAt(8) && kAt(8) < kAt(16)) {
		t.Fatalf("k not growing with dimension: %f %f %f", kAt(2), kAt(8), kAt(16))
	}
}

func TestSecondLevelCostBounds(t *testing.T) {
	m := testModel(16, vec.Euclidean)
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		c := m.SecondLevelCost(n)
		k := m.ExpectedPageAccesses(n)
		// Never cheaper than reading k pages sequentially after one seek,
		// never costlier than k random reads.
		tp := m.Disk.Xfer
		lo := m.Disk.Seek + k*tp
		hi := k*(m.Disk.Seek+tp) + 1e-9
		if c < lo-1e-9 || c > hi {
			t.Fatalf("n=%d: cost %f outside [%f, %f]", n, c, lo, hi)
		}
	}
	if m.SecondLevelCost(0) != 0 {
		t.Fatal("no pages should cost 0")
	}
}

func TestTotalSumsComponents(t *testing.T) {
	m := testModel(8, vec.Euclidean)
	pages := []PageInfo{
		{MBR: cube(8, 0.3), Count: 500, Bits: 2},
		{MBR: cube(8, 0.2), Count: 300, Bits: 8},
		{MBR: cube(8, 0.1), Count: 60, Bits: 32},
	}
	want := m.DirectoryCost(3) + m.SecondLevelCost(3)
	for _, p := range pages {
		want += m.RefinementCost(p.MBR, p.Count, p.Bits)
	}
	if got := m.Total(pages); math.Abs(got-want) > 1e-12 {
		t.Fatalf("total %f, want %f", got, want)
	}
}

func TestRefineFactorScalesCost(t *testing.T) {
	m := testModel(8, vec.Euclidean)
	box := cube(8, 0.3)
	base := m.RefinementCost(box, 500, 2)
	m.RefineFactor = 3
	if got := m.RefinementCost(box, 500, 2); math.Abs(got-3*base) > 1e-12 {
		t.Fatalf("factor not applied: %f vs 3·%f", got, base)
	}
}

func TestDegenerateMBRDoesNotBlowUp(t *testing.T) {
	m := testModel(4, vec.Euclidean)
	flat := vec.MBR{Lo: vec.Point{0, 0, 0.5, 0}, Hi: vec.Point{1, 1, 0.5, 1}} // flat dim 2
	p := m.RefinementProbability(flat, 100, 4)
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
		t.Fatalf("degenerate MBR probability %f", p)
	}
}

func TestFractalDimensionReducesPageAccesses(t *testing.T) {
	// Correlated data (low D_F) concentrates queries near the data pages'
	// own regions, reducing the expected accesses versus uniform.
	mu := testModel(16, vec.Euclidean)
	mf := testModel(16, vec.Euclidean)
	mf.FractalDim = 4
	if mf.ExpectedPageAccesses(2000) >= mu.ExpectedPageAccesses(2000) {
		t.Fatalf("fractal model should predict fewer page accesses: %f vs %f",
			mf.ExpectedPageAccesses(2000), mu.ExpectedPageAccesses(2000))
	}
}

func TestKNNExtensionGrowsRadiusAndAccesses(t *testing.T) {
	m1 := testModel(8, vec.Euclidean)
	m10 := testModel(8, vec.Euclidean)
	m10.K = 10
	box := cube(8, 0.4)
	r1 := m1.NNRadius(box, 1000)
	r10 := m10.NNRadius(box, 1000)
	if r10 <= r1 {
		t.Fatalf("k=10 radius %f should exceed k=1 radius %f", r10, r1)
	}
	// Expected points in the k-NN ball equals k.
	rho := m10.PointDensity(box, 1000)
	vol := math.Pow(math.SqrtPi*r10, 8) / math.Gamma(5)
	if math.Abs(rho*vol-10) > 1e-6 {
		t.Fatalf("expected points in 10-NN ball = %f", rho*vol)
	}
	if m10.ExpectedPageAccesses(500) <= m1.ExpectedPageAccesses(500) {
		t.Fatal("k=10 should access more pages")
	}
	if m10.RefinementProbability(box, 1000, 4) <= m1.RefinementProbability(box, 1000, 4) {
		t.Fatal("k=10 should refine more")
	}
}
