// Package mathx implements the numerical geometry behind the IQ-tree cost
// model: d-dimensional sphere volumes (paper Eq. 8–9), Minkowski sums of
// boxes and spheres (Eq. 11–12), and box∩sphere intersection volumes
// (Eq. 4–5), for both the Euclidean and the maximum metric.
package mathx

import (
	"math"
)

// SphereVolume returns the volume of a d-dimensional L2 ball of radius r
// (paper Eq. 8): V = √π^d · r^d / Γ(d/2 + 1).
func SphereVolume(d int, r float64) float64 {
	if r < 0 {
		return 0
	}
	return math.Pow(math.SqrtPi*r, float64(d)) / math.Gamma(float64(d)/2+1)
}

// CubeVolume returns the volume of a d-dimensional L∞ ball of radius r
// (paper Eq. 9): V = (2r)^d.
func CubeVolume(d int, r float64) float64 {
	if r < 0 {
		return 0
	}
	return math.Pow(2*r, float64(d))
}

// SphereRadius inverts SphereVolume: the radius of the d-dimensional L2
// ball with volume v (paper Eq. 7).
func SphereRadius(d int, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Pow(v*math.Gamma(float64(d)/2+1), 1/float64(d)) / math.SqrtPi
}

// CubeRadius inverts CubeVolume: the radius of the d-dimensional L∞ ball
// with volume v.
func CubeRadius(d int, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Pow(v, 1/float64(d)) / 2
}

// Binomial returns the binomial coefficient C(n, k) as a float64.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// ElementarySymmetric returns all elementary symmetric polynomials
// e_0..e_n of the values xs (e_0 = 1). It runs in O(n²).
func ElementarySymmetric(xs []float64) []float64 {
	e := make([]float64, len(xs)+1)
	e[0] = 1
	for _, x := range xs {
		for k := len(e) - 1; k >= 1; k-- {
			e[k] += e[k-1] * x
		}
	}
	return e
}

// MinkowskiBoxSphereMax returns the volume of the Minkowski sum of a box
// with the given side lengths and an L∞ ball of radius r (paper Eq. 11):
// Π (side_i + 2r).
func MinkowskiBoxSphereMax(sides []float64, r float64) float64 {
	v := 1.0
	for _, s := range sides {
		v *= s + 2*r
	}
	return v
}

// MinkowskiBoxSphereEucl returns the exact volume of the Minkowski sum of
// a box with the given side lengths and an L2 ball of radius r:
//
//	V = Σ_k e_{d−k}(sides) · V_k(r)
//
// where e_j are the elementary symmetric polynomials of the side lengths
// and V_k(r) is the k-dimensional sphere volume. For a cube (all sides a)
// this reduces to the paper's Eq. 12.
func MinkowskiBoxSphereEucl(sides []float64, r float64) float64 {
	d := len(sides)
	e := ElementarySymmetric(sides)
	var v float64
	for k := 0; k <= d; k++ {
		v += e[d-k] * SphereVolume(k, r)
	}
	return v
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
