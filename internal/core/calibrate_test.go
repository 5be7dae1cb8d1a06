package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// referenceCalibration is the per-(query, range) reference for
// calibrateRefinement: queries in the outer loop, and every range a
// query reaches encoded again for that query. It also returns the
// refinement count, so a test can tell a vacuous comparison.
func referenceCalibration(b *builder, ranges []partRange) (factor, observed float64) {
	queries := b.sampleQueries()
	if len(queries) == 0 {
		return 1, 0
	}
	radii := fullScanRadii(b, queries)

	var predicted float64
	for _, r := range ranges {
		bits := b.fitBits(r.hi - r.lo)
		if bits >= quantize.ExactBits {
			continue
		}
		predicted += float64(r.hi-r.lo) * b.model.RefinementProbability(r.mbr, r.hi-r.lo, bits)
	}
	predicted *= float64(len(queries))

	var arena kernel.Arena
	cells := make([]uint32, b.dim)
	for qi, q := range queries {
		rq := radii[qi]
		lbT := kernel.SqThreshold(b.opt.Metric, rq)
		for _, r := range ranges {
			bits := b.fitBits(r.hi - r.lo)
			if bits >= quantize.ExactBits {
				continue
			}
			if r.mbr.MinDist(q, b.opt.Metric) >= rq {
				continue
			}
			grid := quantize.NewGrid(r.mbr, bits)
			tb := arena.Tables(grid, q, b.opt.Metric, r.hi-r.lo)
			for i := r.lo; i < r.hi; i++ {
				cells = grid.Encode(b.pts[b.perm[i]], cells)
				if lb, pruned := tb.MinDistPruned(cells, lbT); !pruned && lb < rq {
					observed++
				}
			}
		}
	}
	if predicted <= 0 || observed <= 0 {
		return 1, observed
	}
	return mathx.Clamp(observed/predicted, 0.25, 32), observed
}

// fullScanRadii is the reference for nnRadii: each query's distance to
// its nearest point at a distance above 0, over a scan of all points.
func fullScanRadii(b *builder, queries []vec.Point) []float64 {
	radii := make([]float64, len(queries))
	for qi, q := range queries {
		radii[qi] = math.Inf(1)
		for _, p := range b.pts {
			if d := b.opt.Metric.Dist(q, p); d > 0 && d < radii[qi] {
				radii[qi] = d
			}
		}
	}
	return radii
}

// TestNNRadiiMatchFullScan checks that the calibration radii, found by
// visiting the initial ranges in MINDIST order and stopping at the first
// that cannot hold a nearer point, are bit-identical to a scan of all
// points: on the four generated sets, on 7 points repeated, and on a set
// whose points all equal one query (radius +Inf), under both metrics.
func TestNNRadiiMatchFullScan(t *testing.T) {
	inputs := map[string][]vec.Point{}
	for _, name := range []dataset.Name{dataset.Uniform, dataset.CAD, dataset.Color, dataset.Weather} {
		pts, err := dataset.Generate(name, 1, 5000, 16)
		if err != nil {
			t.Fatal(err)
		}
		inputs[string(name)] = pts
	}
	seven := randPoints(rand.New(rand.NewSource(34)), 7, 8)
	dups, same := make([]vec.Point, 20000), make([]vec.Point, 5000)
	for i := range dups {
		dups[i] = seven[i%len(seven)]
	}
	for i := range same {
		same[i] = seven[0]
	}
	inputs["duplicates"], inputs["all-equal"] = dups, same
	cfg := store.DefaultConfig()
	for name, pts := range inputs {
		for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum} {
			opt := DefaultOptions()
			opt.Metric = met
			g := geometry{dim: len(pts[0]), blockSize: cfg.BlockSize}
			b := newBuilder(g, opt, costmodel.Model{Disk: cfg, Metric: met, Dim: g.dim, N: len(pts)}, pts)
			ranges := b.initialRanges()
			queries := b.sampleQueries()
			got, want := b.nnRadii(queries, ranges), fullScanRadii(b, queries)
			for qi := range want {
				if math.Float64bits(got[qi]) != math.Float64bits(want[qi]) {
					t.Errorf("%s %v query %d: radius %v, full scan %v", name, met, qi, got[qi], want[qi])
				}
			}
			if name == "all-equal" && !math.IsInf(want[0], 1) {
				t.Fatalf("all-equal %v: full-scan radius %v, want +Inf", met, want[0])
			}
		}
	}
}

func TestCalibrationMatchesPerQueryReference(t *testing.T) {
	for _, name := range []dataset.Name{dataset.Uniform, dataset.CAD, dataset.Color, dataset.Weather} {
		pts, err := dataset.Generate(name, 1, 5000, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum} {
			opt := DefaultOptions()
			opt.Metric = met
			tr, err := Build(store.NewSim(store.DefaultConfig()), pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			b := newBuilder(tr.geometry, tr.opt, tr.load().model, pts)
			ranges := b.initialRanges()
			want, observed := referenceCalibration(b, ranges)
			if observed == 0 {
				t.Fatalf("%s %v: no sampled query reached a quantized range; the comparison is vacuous", name, met)
			}
			got := b.calibrateRefinement(ranges)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: factor %v, per-query reference %v", name, met, got, want)
			}
			if built := tr.load().model.RefineFactor; math.Float64bits(built) != math.Float64bits(want) {
				t.Fatalf("%s %v: build used factor %v, reference %v", name, met, built, want)
			}
		}
	}
}

// TestSampleQueriesBiasBelowTwiceCount records a known bias (see
// ROADMAP): for calibrationQueries < n < 2·calibrationQueries the stride
// is 1, so the queries are the first calibrationQueries points.
func TestSampleQueriesBiasBelowTwiceCount(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(1)), 2*calibrationQueries-1, 4)
	b := &builder{pts: pts}
	qs := b.sampleQueries()
	for i, q := range qs {
		if &q[0] != &pts[i][0] {
			t.Fatalf("query %d is not point %d: the sample now reaches past the first %d points", i, i, calibrationQueries)
		}
	}
}
