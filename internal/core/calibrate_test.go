package core

import (
	"math"
	"math/rand"
	"testing"

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
	radii := b.nnRadii(queries)

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
