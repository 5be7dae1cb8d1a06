package core

import (
	"cmp"
	"math"
	"slices"

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
// true nearest-neighbor distances (an exact search over the initial
// ranges, nnRadii), count how many point
// approximations of the initial 1-bit configuration would need
// refinement, and compare with the model's prediction for the same
// configuration.
func (b *builder) calibrateRefinement(ranges []partRange) float64 {
	queries := b.sampleQueries()
	if len(queries) == 0 {
		return 1
	}
	radii := b.nnRadii(queries, ranges)

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

// nnRadii computes the nearest-neighbor distance of each query over the
// whole database, excluding the points at distance 0 (the query point
// itself and its duplicates; a query all points equal gets +Inf). Each
// query visits the initial ranges in MINDIST order, scanning their rows,
// and stops at the first range whose MINDIST is at least the best
// distance so far: every point of a range lies at least its MINDIST
// away, in the same float64 arithmetic (each axis gap of MinDist is at
// most the point's coordinate difference, and both sum or take the
// maximum in dimension order), so a skipped point never improves the
// best and every radius equals a scan of all points. The queries run in
// parallel.
func (b *builder) nnRadii(queries []vec.Point, ranges []partRange) []float64 {
	met, d := b.opt.Metric, b.dim
	radii := make([]float64, len(queries))
	type rangeDist struct {
		r    int
		dist float64
	}
	par.For(len(queries), func() func(int) {
		order := make([]rangeDist, len(ranges))
		return func(qi int) {
			q := queries[qi]
			for i, r := range ranges {
				order[i] = rangeDist{i, r.mbr.MinDist(q, met)}
			}
			slices.SortFunc(order, func(x, y rangeDist) int { return cmp.Compare(x.dist, y.dist) })
			best := math.Inf(1)
			for _, o := range order {
				if o.dist >= best {
					break
				}
				r := ranges[o.r]
				for off := r.lo * d; off < r.hi*d; off += d {
					if dist := met.Dist(q, b.rows[off:off+d]); dist > 0 && dist < best {
						best = dist
					}
				}
			}
			radii[qi] = best
		}
	})
	return radii
}
