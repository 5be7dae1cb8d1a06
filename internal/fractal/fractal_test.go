package fractal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/vec"
)

func uniformPoints(r *rand.Rand, n, d int) []vec.Point {
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

// linePoints embeds a 1-dimensional manifold in d dimensions.
func linePoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		tt := r.Float64()
		p := make(vec.Point, d)
		for j := range p {
			p[j] = float32(tt * float64(j+1) / float64(d))
		}
		pts[i] = p
	}
	return pts
}

// planePoints embeds a 2-dimensional manifold in d dimensions.
func planePoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		u, v := r.Float64(), r.Float64()
		p := make(vec.Point, d)
		for j := range p {
			if j%2 == 0 {
				p[j] = float32(u)
			} else {
				p[j] = float32(v * (1 + 0.1*float64(j)))
			}
		}
		pts[i] = p
	}
	return pts
}

func TestCorrelationDimensionLowDimensionalManifolds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	line := CorrelationDimension(linePoints(r, 5000, 8), vec.Euclidean)
	if math.Abs(line-1) > 0.35 {
		t.Fatalf("line D2 = %f, want ~1", line)
	}
	plane := CorrelationDimension(planePoints(r, 5000, 8), vec.Euclidean)
	if math.Abs(plane-2) > 0.6 {
		t.Fatalf("plane D2 = %f, want ~2", plane)
	}
	if line >= plane {
		t.Fatalf("line D2 %f should be below plane D2 %f", line, plane)
	}
}

func TestCorrelationDimensionLowUniformDims(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, d := range []int{2, 3} {
		got := CorrelationDimension(uniformPoints(r, 5000, d), vec.Euclidean)
		if math.Abs(got-float64(d)) > 0.7 {
			t.Fatalf("uniform d=%d: D2 = %f", d, got)
		}
	}
}

func TestCorrelationDimensionOrderingAcrossDims(t *testing.T) {
	// In high dimensions the estimator is biased low (finite-sample
	// bound), but the ordering must be preserved.
	r := rand.New(rand.NewSource(3))
	d4 := CorrelationDimension(uniformPoints(r, 5000, 4), vec.Euclidean)
	d8 := CorrelationDimension(uniformPoints(r, 5000, 8), vec.Euclidean)
	d16 := CorrelationDimension(uniformPoints(r, 5000, 16), vec.Euclidean)
	if !(d4 < d8 && d8 < d16) {
		t.Fatalf("ordering broken: %f %f %f", d4, d8, d16)
	}
}

func TestCorrelationDimensionClamped(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := uniformPoints(r, 1000, 3)
	got := CorrelationDimension(pts, vec.Euclidean)
	if got < 0.5 || got > 3 {
		t.Fatalf("D2 %f outside clamp [0.5, 3]", got)
	}
}

func TestCorrelationDimensionDegenerateInputs(t *testing.T) {
	if got := CorrelationDimension(nil, vec.Euclidean); got != 1 {
		t.Fatalf("empty input: %f", got)
	}
	// All points identical: nearly all pair distances are 0.
	same := make([]vec.Point, 100)
	for i := range same {
		same[i] = vec.Point{1, 2, 3}
	}
	if got := CorrelationDimension(same, vec.Euclidean); got != 0.5 {
		t.Fatalf("identical points: %f, want 0.5 (clamp floor)", got)
	}
	// Too few points: fall back to the embedding dimension.
	few := []vec.Point{{0, 0}, {1, 1}}
	if got := CorrelationDimension(few, vec.Euclidean); got != 2 {
		t.Fatalf("few points: %f, want 2", got)
	}
}

func TestBoxCountingDimension(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	line := BoxCountingDimension(linePoints(r, 4000, 6))
	if math.Abs(line-1) > 0.4 {
		t.Fatalf("line D0 = %f, want ~1", line)
	}
	uni2 := BoxCountingDimension(uniformPoints(r, 4000, 2))
	if math.Abs(uni2-2) > 0.6 {
		t.Fatalf("uniform 2-d D0 = %f, want ~2", uni2)
	}
	if line >= uni2 {
		t.Fatalf("line D0 %f should be below plane D0 %f", line, uni2)
	}
	if got := BoxCountingDimension(nil); got != 1 {
		t.Fatalf("empty input: %f", got)
	}
}

func TestEstimateIsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := uniformPoints(r, 3000, 5)
	a := Estimate(pts, vec.Euclidean)
	b := Estimate(pts, vec.Euclidean)
	if a != b {
		t.Fatalf("estimate not deterministic: %f vs %f", a, b)
	}
}

func TestFitSlope(t *testing.T) {
	// Perfect line y = 3x + 1.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 4, 7, 10}
	slope, ok := fitSlope(xs, ys)
	if !ok || math.Abs(slope-3) > 1e-12 {
		t.Fatalf("slope %f ok=%v", slope, ok)
	}
	if _, ok := fitSlope([]float64{1}, []float64{1}); ok {
		t.Fatal("single point should not fit")
	}
	if _, ok := fitSlope([]float64{2, 2}, []float64{1, 5}); ok {
		t.Fatal("vertical data should not fit")
	}
}

func TestSampleBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	big := uniformPoints(r, MaxSample*5, 2)
	s := vec.Strided(big, MaxSample)
	if len(s) > MaxSample {
		t.Fatalf("sample too large: %d", len(s))
	}
	small := uniformPoints(r, 10, 2)
	if len(vec.Strided(small, MaxSample)) != 10 {
		t.Fatal("small inputs should pass through")
	}
}

// referenceCorrelationDimension is the full-sort estimator: it sorts
// every pair distance and reads C(r) from the whole sorted list.
// CorrelationDimension must match it bit for bit.
func referenceCorrelationDimension(pts []vec.Point, met vec.Metric) float64 {
	if len(pts) == 0 {
		return 1
	}
	d := float64(len(pts[0]))
	s := vec.Strided(pts, MaxSample)
	if len(s) < 8 {
		return d
	}
	dists := make([]float64, 0, len(s)*(len(s)-1)/2)
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if dd := met.Dist(s[i], s[j]); dd > 0 {
				dists = append(dists, dd)
			}
		}
	}
	if len(dists) < 16 {
		return 0.5
	}
	sort.Float64s(dists)
	lo := dists[len(dists)/500]
	hi := dists[len(dists)/20]
	if lo <= 0 || hi <= lo*1.01 {
		return clamp(d, 0.5, d)
	}
	const steps = 12
	var xs, ys []float64
	for k := 0; k <= steps; k++ {
		r := lo * math.Pow(hi/lo, float64(k)/steps)
		c := sort.SearchFloat64s(dists, r)
		if c == 0 {
			continue
		}
		xs = append(xs, math.Log(r))
		ys = append(ys, math.Log(float64(c)/float64(len(dists))))
	}
	slope, ok := fitSlope(xs, ys)
	if !ok {
		return clamp(d, 0.5, d)
	}
	return clamp(slope, 0.5, d)
}

// generate returns n points of a data set, cut to its first d
// coordinates when it has more.
func generate(t testing.TB, name dataset.Name, seed int64, n, d int) []vec.Point {
	t.Helper()
	pts, err := dataset.Generate(name, seed, n, d)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if len(p) > d {
			pts[i] = p[:d]
		}
	}
	return pts
}

func assertSameEstimate(t *testing.T, label string, pts []vec.Point, met vec.Metric) {
	t.Helper()
	got, want := CorrelationDimension(pts, met), referenceCorrelationDimension(pts, met)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s %v: D2 = %v, full sort gives %v", label, met, got, want)
	}
}

var allMetrics = []vec.Metric{vec.Euclidean, vec.Maximum}

var allDatasets = []dataset.Name{dataset.Uniform, dataset.CAD, dataset.Color, dataset.Weather}

// The reference sorts up to 2.1 M distances per call, so the subtests
// run in parallel: about 12 s on a 2-vCPU host.
func TestCorrelationDimensionMatchesFullSort(t *testing.T) {
	for _, name := range allDatasets {
		t.Run(string(name), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{9, 20, 100, 500, 1000} {
				for _, d := range []int{2, 4, 16} {
					for seed := int64(1); seed <= 3; seed++ {
						pts := generate(t, name, seed, n, d)
						for _, met := range allMetrics {
							assertSameEstimate(t, fmt.Sprintf("n=%d d=%d seed=%d", n, d, seed), pts, met)
						}
					}
				}
			}
		})
	}
	t.Run("duplicates", func(t *testing.T) {
		t.Parallel()
		// Integer grids: many pair distances tie, including at the
		// quantiles the fit reads.
		r := rand.New(rand.NewSource(11))
		for c := 0; c < 200; c++ {
			levels, d := 1+r.Intn(6), 1+r.Intn(8)
			n := int(math.Round(10 * math.Pow(300, r.Float64()))) // 10 to 3,000, log-uniform
			pts := make([]vec.Point, n)
			for i := range pts {
				p := make(vec.Point, d)
				for j := range p {
					p[j] = float32(r.Intn(levels))
				}
				pts[i] = p
			}
			assertSameEstimate(t, fmt.Sprintf("case %d: %d levels d=%d n=%d", c, levels, d, n), pts, allMetrics[c%len(allMetrics)])
		}
	})
	t.Run("full sample", func(t *testing.T) {
		t.Parallel()
		assertFullSamples(t)
	})
}

// assertFullSamples checks the estimate on inputs past MaxSample, whose
// pair distances fill on several goroutines.
func assertFullSamples(t *testing.T) {
	for _, name := range allDatasets {
		for _, n := range []int{MaxSample + 1, 25_000} {
			assertSameEstimate(t, fmt.Sprintf("%s n=%d", name, n), generate(t, name, 1, n, 16), vec.Euclidean)
		}
	}
}

// TestCorrelationDimensionOneProc runs the full samples on one goroutine:
// the estimate must not depend on how many fill the pair distances. It
// sets GOMAXPROCS, so it must not run in parallel.
func TestCorrelationDimensionOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	assertFullSamples(t)
}

// TestSelectAndCountMatchFullSort checks the two steps that replace the
// full sort on their own, including a radius above the selected value,
// which the estimator's radius ladder may never produce.
func TestSelectAndCountMatchFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for c := 0; c < 300; c++ {
		vals := make([]float64, 1+r.Intn(2000))
		levels := 1 + r.Intn(50)
		for i := range vals {
			vals[i] = float64(r.Intn(levels)) + 0.5*float64(r.Intn(2))
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		n := r.Intn(len(vals))
		selectNth(vals, n)
		if vals[n] != sorted[n] {
			t.Fatalf("case %d: selected %v at %d, sort gives %v", c, vals[n], n, sorted[n])
		}
		prefix, tail := vals[:n+1], vals[n+1:]
		for _, v := range tail {
			if v < vals[n] {
				t.Fatalf("case %d: tail value %v below selected %v", c, v, vals[n])
			}
		}
		sort.Float64s(prefix)
		top := sorted[n]
		for _, rad := range []float64{0, sorted[0], top / 2, top, math.Nextafter(top, math.Inf(1)), top + 1, sorted[len(sorted)-1], math.Inf(1)} {
			if got, want := countBelow(prefix, tail, rad), sort.SearchFloat64s(sorted, rad); got != want {
				t.Fatalf("case %d: countBelow(%v) = %d, full sort gives %d", c, rad, got, want)
			}
		}
	}
}

// TestSampleBiasBelowTwiceMaxSample records a known bias (see ROADMAP):
// for MaxSample < N < 2·MaxSample the stride is 1, so the sample is the
// first MaxSample points and the estimate never sees the rest. Here the
// points past MaxSample fill a plane, yet the estimate is the line's.
func TestSampleBiasBelowTwiceMaxSample(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	line := linePoints(r, MaxSample, 8)
	pts := append(append([]vec.Point(nil), line...), planePoints(r, MaxSample-1, 8)...)
	if got, want := CorrelationDimension(pts, vec.Euclidean), CorrelationDimension(line, vec.Euclidean); got != want {
		t.Fatalf("D2 over line+plane = %v, over the line alone %v: the sample now reaches past the first %d points", got, want, MaxSample)
	}
}

var benchSink float64

// estimatePairs is the number of interleaved full-sort/select samples
// BenchmarkCorrelationDimension takes; odd, so the median is one pair's.
const estimatePairs = 9

// BenchmarkCorrelationDimension times the estimate on one full sample
// (2,048 of 25,000 CAD points, 2.1 M pair distances) against the full-sort
// reference, b.N estimates of each in estimatePairs interleaved pairs,
// alternating which runs first. It reports select's ns/op and the median
// of the per-pair fullsort/select ratios; scripts/ci.sh requires that
// median to stay at least 2.
func BenchmarkCorrelationDimension(b *testing.B) {
	pts := generate(b, dataset.CAD, 1, 25_000, 16)
	sample := func(estimate func([]vec.Point, vec.Metric) float64) time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			benchSink = estimate(pts, vec.Euclidean)
		}
		return time.Since(start)
	}
	ratios := make([]float64, estimatePairs)
	var total time.Duration
	b.ResetTimer()
	for p := range ratios {
		var tf, ts time.Duration
		if p%2 == 0 {
			tf, ts = sample(referenceCorrelationDimension), sample(CorrelationDimension)
		} else {
			ts, tf = sample(CorrelationDimension), sample(referenceCorrelationDimension)
		}
		ratios[p] = float64(tf) / float64(ts)
		total += ts
	}
	sort.Float64s(ratios)
	b.ReportMetric(float64(total.Nanoseconds())/float64(estimatePairs*b.N), "ns/op")
	b.ReportMetric(ratios[estimatePairs/2], "fullsort/select")
}
