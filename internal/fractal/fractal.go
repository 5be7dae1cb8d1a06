// Package fractal estimates the fractal dimension D_F of a point set.
//
// The IQ-tree cost model (paper Section 3.4, Eq. 13–18) replaces the
// uniformity/independence assumption by the fractal dimension: correlated
// data concentrates on a D_F-dimensional subpart of the d-dimensional data
// space, and the number of points enclosed by a growing volume scales with
// exponent D_F/d instead of 1. This package provides the two classic
// estimators the paper's references use: the correlation dimension D2
// (Belussi/Faloutsos) and the box-counting dimension D0.
package fractal

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/par"
	"repro/internal/vec"
)

// MaxSample bounds the number of points the estimators examine; larger
// inputs are subsampled deterministically with vec.Strided.
const MaxSample = 2048

// CorrelationDimension estimates the correlation dimension D2 of the point
// set: the slope of log C(r) against log r, where C(r) is the fraction of
// point pairs within distance r. The slope is fit by least squares over
// the small-radius scaling region of the observed pair distances. The
// result is clamped to [0.5, d].
//
// The pair distances are computed on up to GOMAXPROCS goroutines (see
// pairDists). The fit reads only the smallest 5% of them, so only those
// are ordered: the 5th percentile is selected in linear time and the
// prefix at or below it sorted. The estimate is bit-identical to one that
// sorts every pair distance.
func CorrelationDimension(pts []vec.Point, met vec.Metric) float64 {
	if len(pts) == 0 {
		return 1
	}
	d := float64(len(pts[0]))
	s := vec.Strided(pts, MaxSample)
	if len(s) < 8 {
		return d
	}
	// All nonzero pairwise distances of the sample, in pair order.
	dists := pairDists(s, met)
	nz := 0
	for _, dd := range dists {
		if dd > 0 {
			dists[nz] = dd
			nz++
		}
	}
	dists = dists[:nz]
	if len(dists) < 16 {
		// Degenerate data (most points identical): dimension ~0.
		return 0.5
	}
	// Fit over the small-radius scaling region (0.2%–5% quantiles of the
	// pair distances): at larger radii boundary effects flatten log C(r)
	// and the slope systematically underestimates D2. Note the classic
	// finite-sample (Eckmann–Ruelle) bound still caps resolvable D2 at
	// roughly 2·log10(#pairs); high uniform dimensionalities read low.
	iHi := len(dists) / 20 // 5th percentile
	selectNth(dists, iHi)
	prefix, tail := dists[:iHi+1], dists[iHi+1:]
	sort.Float64s(prefix)
	lo := prefix[len(dists)/500]  // 0.2th percentile
	hi := prefix[iHi]             // 5th percentile
	if lo <= 0 || hi <= lo*1.01 { // no scaling region
		return clamp(d, 0.5, d)
	}
	// Geometric ladder of radii across the scaling region; C(r) by binary
	// search in the sorted prefix.
	const steps = 12
	var xs, ys []float64
	for k := 0; k <= steps; k++ {
		r := lo * math.Pow(hi/lo, float64(k)/steps)
		c := countBelow(prefix, tail, r)
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

// pairDists returns the distance of every pair i < j of s, pair (i, j)
// at index i·n − i(i+1)/2 + (j−i−1), computed with Metric.Dist's
// arithmetic on a float64 row-major copy of s. Rows i are spread over
// the cores by par.For; each writes only its rows' pairs, so the result
// does not depend on how many.
func pairDists(s []vec.Point, met vec.Metric) []float64 {
	n, d := len(s), len(s[0])
	rows := make([]float64, 0, n*d)
	for _, p := range s {
		for _, v := range p {
			rows = append(rows, float64(v))
		}
	}
	out := make([]float64, n*(n-1)/2)
	par.For(n, func() func(int) {
		return func(i int) {
			p, slot := rows[i*d:(i+1)*d], i*n-i*(i+1)/2
			for j := i + 1; j < n; j++ {
				out[slot+j-i-1] = rowDist(met, p, rows[j*d:(j+1)*d])
			}
		}
	})
	return out
}

// rowDist is Metric.Dist on float64 rows: the same operations in the
// same order, so the same bits.
func rowDist(met vec.Metric, p, q []float64) float64 {
	var s float64
	switch met {
	case vec.Euclidean:
		for k, v := range p {
			v -= q[k]
			s += v * v
		}
		return math.Sqrt(s)
	case vec.Maximum:
		for k, v := range p {
			if v = math.Abs(v - q[k]); v > s {
				s = v
			}
		}
		return s
	default:
		panic(fmt.Sprintf("fractal: unknown metric %d", int(met)))
	}
}

// countBelow returns how many of the values in prefix and tail are < r,
// given prefix sorted ascending and no tail value below prefix's last.
// Only a radius above that last value (rounding can put the ladder's top
// rung there) needs to look at the tail.
func countBelow(prefix, tail []float64, r float64) int {
	c := sort.SearchFloat64s(prefix, r)
	if c == len(prefix) {
		for _, v := range tail {
			if v < r {
				c++
			}
		}
	}
	return c
}

// selectNth reorders a so that a[n] holds the value an ascending sort
// would put there, no value of a[:n] above it and none of a[n+1:] below
// it. Three-way partitioning keeps duplicate-heavy input linear; a
// partition budget falls back to sorting the remaining range, so the
// worst case stays O(len(a) log len(a)).
func selectNth(a []float64, n int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 16 && budget > 0; budget-- {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt
		case n >= gt:
			lo = gt
		default:
			return // a[n] == p, already in its sorted place
		}
	}
	sort.Float64s(a[lo:hi])
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// BoxCountingDimension estimates the box-counting dimension D0: the slope
// of log N(s) against log(1/s), where N(s) is the number of grid cells of
// side s (relative to the data MBR) occupied by at least one point. The
// result is clamped to [0.5, d].
func BoxCountingDimension(pts []vec.Point) float64 {
	if len(pts) == 0 {
		return 1
	}
	d := len(pts[0])
	s := vec.Strided(pts, MaxSample)
	if len(s) < 8 {
		return float64(d)
	}
	mbr := vec.MBROf(s)
	// Count occupied cells at grid resolutions 2^1 .. 2^J per dimension.
	// The finest useful resolution keeps the expected occupancy well below
	// one point per cell along the fitted range.
	const maxLevel = 6
	var xs, ys []float64
	for level := 1; level <= maxLevel; level++ {
		cells := occupiedCells(s, mbr, level)
		if cells <= 1 {
			continue
		}
		xs = append(xs, float64(level)*math.Ln2) // log(1/s), s = 2^-level
		ys = append(ys, math.Log(float64(cells)))
		if cells >= len(s) { // saturated: every point in its own cell
			break
		}
	}
	slope, ok := fitSlope(xs, ys)
	if !ok {
		return float64(d)
	}
	return clamp(slope, 0.5, float64(d))
}

// occupiedCells counts distinct grid cells of side 2^-level (relative to
// mbr) containing at least one point, via hashing of cell coordinates.
func occupiedCells(pts []vec.Point, mbr vec.MBR, level int) int {
	d := mbr.Dim()
	cellsPerDim := float64(int64(1) << uint(level))
	seen := make(map[uint64]struct{}, len(pts))
	for _, p := range pts {
		var h uint64 = 1469598103934665603 // FNV offset basis
		for i := 0; i < d; i++ {
			lo := float64(mbr.Lo[i])
			side := float64(mbr.Hi[i]) - lo
			var c uint64
			if side > 0 {
				v := math.Floor((float64(p[i]) - lo) / side * cellsPerDim)
				if v >= cellsPerDim {
					v = cellsPerDim - 1
				}
				if v < 0 {
					v = 0
				}
				c = uint64(v)
			}
			h ^= c
			h *= 1099511628211 // FNV prime
		}
		seen[h] = struct{}{}
	}
	return len(seen)
}

// Estimate returns the fractal dimension used by the cost model: the
// correlation dimension, which the paper's cost-model references [2, 3, 8]
// recommend for selectivity estimation.
func Estimate(pts []vec.Point, met vec.Metric) float64 {
	return CorrelationDimension(pts, met)
}

// fitSlope performs an ordinary least-squares fit of ys against xs and
// returns the slope. ok is false when fewer than two distinct x values
// exist.
func fitSlope(xs, ys []float64) (slope float64, ok bool) {
	if len(xs) < 2 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
