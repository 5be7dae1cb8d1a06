package mathx

import (
	"math"
)

// BoxSphereIntersectMax returns the volume of the intersection of the box
// [lo, hi] with the L∞ ball of radius r around center q (paper Eq. 5):
//
//	V = Π max(0, min(hi_i, q_i+r) − max(lo_i, q_i−r)).
func BoxSphereIntersectMax(lo, hi, q []float64, r float64) float64 {
	v := 1.0
	for i := range lo {
		a := math.Max(lo[i], q[i]-r)
		b := math.Min(hi[i], q[i]+r)
		if b <= a {
			return 0
		}
		v *= b - a
	}
	return v
}

// BoxSphereContainFracEucl returns the fraction of the box [lo, hi]
// inside the L2 ball of radius r around q — P(‖X − q‖ ≤ r) for X
// uniform in the box — via a central-limit normal approximation of the
// squared distance Σ(X_i − q_i)²: per-dimension coordinates are
// independent and uniform, so the sum's mean and variance have closed
// forms and the sum itself is approximately normal (the classic
// high-dimensional cost-model device). The estimate is smooth and
// monotone in r and — unlike sample-based integration — never collapses
// to zero on the thin intersections that dominate high-dimensional
// nearest-neighbor spheres, where even a low-discrepancy rule's every
// sample misses the ball.
func BoxSphereContainFracEucl(lo, hi, q []float64, r float64) float64 {
	rr := r * r
	var mu, va, nearSq, farSq float64
	for i := range lo {
		a, b := lo[i]-q[i], hi[i]-q[i]
		// E[u²] and E[u⁴] for u uniform on [a, b], division-free forms.
		m2 := (a*a + a*b + b*b) / 3
		m4 := (a*a*a*a + a*a*a*b + a*a*b*b + a*b*b*b + b*b*b*b) / 5
		mu += m2
		va += m4 - m2*m2
		lm := math.Max(math.Abs(a), math.Abs(b))
		farSq += lm * lm
		if a > 0 {
			nearSq += a * a
		} else if b < 0 {
			nearSq += b * b
		}
	}
	if farSq <= rr {
		return 1 // box entirely inside the ball
	}
	if nearSq >= rr {
		return 0 // box entirely outside the ball
	}
	if va <= 0 {
		if mu <= rr {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((mu-rr)/math.Sqrt(2*va))
}

// BoxSphereIntersectEuclFast approximates the box ∩ L2-ball volume by
// replacing the ball with the L∞ ball (cube) of equal volume, then using
// the exact product form. This is the classic cost-model surrogate (used
// where the estimate feeds a heuristic, such as the page scheduler's
// access probabilities): it preserves total volume and monotonicity in r,
// and it is exact for a ball fully inside or fully around the box.
func BoxSphereIntersectEuclFast(lo, hi, q []float64, r float64) float64 {
	d := len(lo)
	req := CubeRadius(d, SphereVolume(d, r))
	return BoxSphereIntersectMax(lo, hi, q, req)
}
