// Package vec provides the basic geometric vocabulary of the IQ-tree:
// fixed-dimensionality float32 points, distance metrics, and minimum
// bounding rectangles (MBRs) with the MINDIST/MAXDIST machinery used by
// nearest-neighbor search.
//
// Points are stored as float32 (the paper's "32-bit exact representation");
// all arithmetic accumulates in float64 to keep distance comparisons stable.
package vec

import (
	"fmt"
	"math"
)

// Point is a d-dimensional point. The dimensionality is implicit in the
// slice length; all points handled by one index must share it.
type Point []float32

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Strided returns a deterministic subsample of at most k points: pts
// itself when it holds no more than k, otherwise k points at stride
// len(pts)/k from the first. The stride rounds down, so about the last
// len(pts) mod k points are never picked.
func Strided(pts []Point, k int) []Point {
	if len(pts) <= k {
		return pts
	}
	stride := len(pts) / k
	out := make([]Point, k)
	for i := range out {
		out[i] = pts[i*stride]
	}
	return out
}

// Neighbor is one similarity-search result, shared by every access method
// in this module (IQ-tree, X-tree, VA-file, sequential scan).
type Neighbor struct {
	ID    uint32
	Dist  float64
	Point Point
}

// Metric identifies a distance metric: the Euclidean and maximum
// metrics for which the paper states its cost model (Eq. 8–12).
type Metric int

const (
	// Euclidean is the L2 metric.
	Euclidean Metric = iota
	// Maximum is the L∞ (Chebyshev) metric.
	Maximum
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "L2"
	case Maximum:
		return "Lmax"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Dist returns the distance between p and q under metric m.
// It panics if the dimensionalities differ.
func (m Metric) Dist(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(p), len(q)))
	}
	switch m {
	case Euclidean:
		return math.Sqrt(sqDist(p, q))
	case Maximum:
		var d float64
		for i := range p {
			if v := math.Abs(float64(p[i]) - float64(q[i])); v > d {
				d = v
			}
		}
		return d
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(m)))
	}
}

func sqDist(p, q Point) float64 {
	var s float64
	for i := range p {
		v := float64(p[i]) - float64(q[i])
		s += v * v
	}
	return s
}
