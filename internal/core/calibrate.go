package core

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/mathx"
	"repro/internal/par"
	"repro/internal/quantize"
	"repro/internal/vec"
)

// calibrationQueries is the number of self-queries sampled from the data
// to calibrate the refinement cost model.
const calibrationQueries = 16

// calibrateRefinement measures how far the closed-form refinement
// probability of the cost model (Eq. 15) is off on the actual data and
// returns a multiplicative correction.
//
// The paper's model keeps the right *shape* across quantization levels
// (its monotonicity is what the optimality proof rests on), but its
// absolute scale can be off by a sizable factor on strongly non-uniform
// data — e.g. on histogram data whose page MBRs overestimate the occupied
// volume. A wrong scale shifts the split/quantize trade-off against the
// constant (per-page) cost, so we pin it empirically: sample a few query
// points from the data (queries follow the data distribution), find their
// true nearest-neighbor distances by brute force, count how many point
// approximations of the initial 1-bit configuration would need
// refinement, and compare with the model's prediction for the same
// configuration.
func (b *builder) calibrateRefinement(ranges []partRange) float64 {
	queries := b.sampleQueries()
	if len(queries) == 0 {
		return 1
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

	// Each range's points are encoded once, on the first query that
	// reaches the range, and shared by every later one. Ranges are
	// counted in parallel; the counts are integers, so neither the loop
	// order nor the schedule can change the factor.
	maxCount := 0
	for _, r := range ranges {
		maxCount = max(maxCount, r.hi-r.lo)
	}
	counts := make([]int, len(ranges))
	par.For(len(ranges), func() func(int) {
		buf := make([]uint32, maxCount*b.dim)
		var arena kernel.Arena
		return func(ri int) { counts[ri] = b.refinements(ranges[ri], queries, radii, buf, &arena) }
	})
	var observed float64
	for _, c := range counts {
		observed += float64(c)
	}
	if predicted <= 0 || observed <= 0 {
		return 1
	}
	return mathx.Clamp(observed/predicted, 0.25, 32)
}

// refinements counts the refinements the sampled queries would make on
// range r stored at the level it fits: the points whose quantized lower
// bound undercuts a query's true NN radius, summed over the queries.
// buf holds the range's codes and arena the distance tables.
func (b *builder) refinements(r partRange, queries []vec.Point, radii []float64, buf []uint32, arena *kernel.Arena) int {
	bits := b.fitBits(r.hi - r.lo)
	if bits >= quantize.ExactBits {
		return 0
	}
	var grid quantize.Grid
	var codes []uint32 // nil until a query reaches the range
	count := 0
	for qi, q := range queries {
		rq := radii[qi]
		if r.mbr.MinDist(q, b.opt.Metric) >= rq {
			continue // no cell of this page can undercut the NN distance
		}
		if codes == nil {
			grid = quantize.NewGrid(r.mbr, bits)
			rows := b.rows[r.lo*b.dim : r.hi*b.dim]
			codes = buf[:len(rows)]
			for off := 0; off < len(rows); off += b.dim {
				grid.Encode(rows[off:off+b.dim], codes[off:off+b.dim])
			}
		}
		tb := arena.Tables(grid, q, b.opt.Metric, r.hi-r.lo)
		lbT := kernel.SqThreshold(b.opt.Metric, rq)
		for off := 0; off < len(codes); off += b.dim {
			if lb, pruned := tb.MinDistPruned(codes[off:off+b.dim], lbT); !pruned && lb < rq {
				count++
			}
		}
	}
	return count
}

// sampleQueries picks calibration queries from the data with a fixed
// stride (queries are assumed to follow the data distribution, as in the
// paper's model).
func (b *builder) sampleQueries() []vec.Point {
	if len(b.pts) < 2 {
		return nil
	}
	return vec.Strided(b.pts, calibrationQueries)
}

// nnRadii computes, by brute force, the nearest-neighbor distance of each
// query over the whole database, excluding the query point itself. The
// queries run in parallel.
func (b *builder) nnRadii(queries []vec.Point) []float64 {
	met := b.opt.Metric
	radii := make([]float64, len(queries))
	par.For(len(queries), func() func(int) {
		return func(qi int) {
			best := math.Inf(1)
			for _, p := range b.pts {
				d := met.Dist(queries[qi], p)
				if d > 0 && d < best {
					best = d
				}
			}
			radii[qi] = best
		}
	})
	return radii
}
