package vec

import (
	"fmt"
	"math"
)

// MBR is a minimum bounding rectangle given by its lower and upper corner.
// A zero-value MBR is "empty" and is the identity for Extend/ExtendMBR.
type MBR struct {
	Lo Point
	Hi Point
}

// NewMBR returns an empty MBR of dimensionality d, ready to be extended.
func NewMBR(d int) MBR {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		lo[i] = float32(math.Inf(1))
		hi[i] = float32(math.Inf(-1))
	}
	return MBR{Lo: lo, Hi: hi}
}

// MBROf computes the minimum bounding rectangle of a non-empty point set.
func MBROf(pts []Point) MBR {
	if len(pts) == 0 {
		panic("vec: MBROf of empty point set")
	}
	m := NewMBR(len(pts[0]))
	for _, p := range pts {
		m.Extend(p)
	}
	return m
}

// Dim returns the dimensionality of the MBR.
func (m MBR) Dim() int { return len(m.Lo) }

// Clone returns a deep copy of m.
func (m MBR) Clone() MBR {
	return MBR{Lo: m.Lo.Clone(), Hi: m.Hi.Clone()}
}

// Extend grows the MBR in place to cover p.
func (m *MBR) Extend(p Point) {
	if len(p) != len(m.Lo) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(p), len(m.Lo)))
	}
	for i, v := range p {
		if v < m.Lo[i] {
			m.Lo[i] = v
		}
		if v > m.Hi[i] {
			m.Hi[i] = v
		}
	}
}

// ExtendMBR grows the MBR in place to cover o.
func (m *MBR) ExtendMBR(o MBR) {
	for i := range o.Lo {
		if o.Lo[i] < m.Lo[i] {
			m.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > m.Hi[i] {
			m.Hi[i] = o.Hi[i]
		}
	}
}

// Contains reports whether p lies inside the closed box m.
func (m MBR) Contains(p Point) bool {
	for i, v := range p {
		if v < m.Lo[i] || v > m.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether m and o share at least one point.
func (m MBR) Intersects(o MBR) bool {
	for i := range m.Lo {
		if m.Hi[i] < o.Lo[i] || o.Hi[i] < m.Lo[i] {
			return false
		}
	}
	return true
}

// Side returns the extent of the MBR along dimension i.
func (m MBR) Side(i int) float64 {
	return float64(m.Hi[i]) - float64(m.Lo[i])
}

// MaxSide returns the dimension with the largest extent and that extent.
// Ties resolve to the lowest dimension, making splits deterministic.
func (m MBR) MaxSide() (dim int, ext float64) {
	ext = math.Inf(-1)
	for i := range m.Lo {
		if s := m.Side(i); s > ext {
			ext = s
			dim = i
		}
	}
	return dim, ext
}

// Volume returns the d-dimensional volume of the box. Degenerate sides
// contribute factor 0.
func (m MBR) Volume() float64 {
	v := 1.0
	for i := range m.Lo {
		v *= m.Side(i)
	}
	return v
}

// Margin returns the sum of the side lengths (the R*-tree "margin" measure,
// up to the constant factor 2^(d-1)).
func (m MBR) Margin() float64 {
	var s float64
	for i := range m.Lo {
		s += m.Side(i)
	}
	return s
}

// OverlapVolume returns the volume of the intersection of m and o
// (0 if disjoint).
func (m MBR) OverlapVolume(o MBR) float64 {
	v := 1.0
	for i := range m.Lo {
		lo := math.Max(float64(m.Lo[i]), float64(o.Lo[i]))
		hi := math.Min(float64(m.Hi[i]), float64(o.Hi[i]))
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// MinDist returns the minimum distance from q to any point of the box under
// metric met (0 if q is inside). This is the MINDIST of the HS algorithm.
func (m MBR) MinDist(q Point, met Metric) float64 {
	switch met {
	case Euclidean:
		return math.Sqrt(m.MinSqDist(q))
	case Maximum:
		var d float64
		for i, v := range q {
			d = math.Max(d, AxisDist(float64(v), float64(m.Lo[i]), float64(m.Hi[i])))
		}
		return d
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(met)))
	}
}

// MinSqDist returns the squared Euclidean MINDIST from q to the box.
func (m MBR) MinSqDist(q Point) float64 {
	var s float64
	for i, v := range q {
		d := AxisDist(float64(v), float64(m.Lo[i]), float64(m.Hi[i]))
		s += d * d
	}
	return s
}

// MaxDist returns the maximum distance from q to any point of the box under
// metric met (attained at the farthest corner).
func (m MBR) MaxDist(q Point, met Metric) float64 {
	switch met {
	case Euclidean:
		var s float64
		for i, v := range q {
			d := AxisFar(float64(v), float64(m.Lo[i]), float64(m.Hi[i]))
			s += d * d
		}
		return math.Sqrt(s)
	case Maximum:
		var d float64
		for i, v := range q {
			d = math.Max(d, AxisFar(float64(v), float64(m.Lo[i]), float64(m.Hi[i])))
		}
		return d
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(met)))
	}
}

// AxisDist is the one-dimensional distance from v to the interval
// [lo, hi] (0 inside): one axis's contribution to a MINDIST. MBR,
// quantize.Grid, the kernel tables and the VA-file all build their
// lower bounds from it.
func AxisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// AxisFar is the one-dimensional distance from v to the farther end of
// [lo, hi]: one axis's contribution to a MAXDIST, the upper-bound
// counterpart of AxisDist.
func AxisFar(v, lo, hi float64) float64 {
	return math.Max(math.Abs(v-lo), math.Abs(v-hi))
}
