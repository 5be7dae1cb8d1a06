// Package quantize implements the grid quantization at the heart of
// independent quantization: points are approximated by the cells of a
// virtual grid that divides the page MBR into 2^g partitions per dimension
// (paper Section 3.1). Quantization is always *relative to the page MBR* —
// that is what lets the IQ-tree spend fewer bits than the VA-file for the
// same accuracy.
//
// The special level g=32 stores exact float32 coordinates instead of cell
// indices, so a 32-bit page needs no third-level exact page.
package quantize

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// ExactBits is the quantization level at which coordinates are stored
// exactly (raw float32 bit patterns rather than grid cells).
const ExactBits = 32

// Levels is the ladder of quantization levels of the split tree: each
// median split of a partition doubles the bits per dimension affordable in
// a fixed-size page.
var Levels = []int{1, 2, 4, 8, 16, 32}

// Grid quantizes points relative to an MBR with Bits bits per dimension.
type Grid struct {
	MBR  vec.MBR
	Bits int // 1..32; 32 means exact float32 storage
}

// NewGrid returns a Grid over mbr with the given bits per dimension.
// It panics on bits outside [1, 32].
func NewGrid(mbr vec.MBR, bits int) Grid {
	if bits < 1 || bits > ExactBits {
		panic(fmt.Sprintf("quantize: bits %d out of range [1,32]", bits))
	}
	return Grid{MBR: mbr, Bits: bits}
}

// Dim returns the dimensionality of the grid.
func (g Grid) Dim() int { return g.MBR.Dim() }

// Cells returns the number of grid cells per dimension, 2^Bits.
func (g Grid) Cells() uint64 {
	if g.Bits >= 64 {
		panic("quantize: bits too large")
	}
	return uint64(1) << uint(g.Bits)
}

// Exact reports whether the grid stores exact coordinates (g = 32).
func (g Grid) Exact() bool { return g.Bits == ExactBits }

// Encode writes the cell indices of p into dst (allocating if dst is nil
// or too short) and returns it. For an exact grid the "cells" are the raw
// float32 bit patterns.
func (g Grid) Encode(p vec.Point, dst []uint32) []uint32 {
	d := g.Dim()
	if len(p) != d {
		panic(fmt.Sprintf("quantize: dimension mismatch %d != %d", len(p), d))
	}
	if cap(dst) < d {
		dst = make([]uint32, d)
	}
	dst = dst[:d]
	if g.Exact() {
		for i, v := range p {
			dst[i] = math.Float32bits(v)
		}
		return dst
	}
	cells := float64(int64(1) << uint(g.Bits))
	maxCell := uint32(cells) - 1
	for i, v := range p {
		lo := float64(g.MBR.Lo[i])
		side := float64(g.MBR.Hi[i]) - lo
		if side <= 0 {
			dst[i] = 0
			continue
		}
		c := math.Floor((float64(v) - lo) / side * cells)
		switch {
		case c < 0:
			dst[i] = 0
		case c > float64(maxCell):
			dst[i] = maxCell
		default:
			dst[i] = uint32(c)
		}
	}
	return dst
}

// CellBounds returns the lower and upper coordinate of cell c along
// dimension i. For an exact grid both equal the stored coordinate.
func (g Grid) CellBounds(i int, c uint32) (lo, hi float64) {
	if g.Exact() {
		v := float64(math.Float32frombits(c))
		return v, v
	}
	l := float64(g.MBR.Lo[i])
	side := float64(g.MBR.Hi[i]) - l
	if side <= 0 {
		return l, l
	}
	cells := float64(int64(1) << uint(g.Bits))
	w := side / cells
	lo = l + float64(c)*w
	hi = lo + w
	return lo, hi
}

// CellBox returns the box approximation of the point with cell indices
// cells. The true point is guaranteed to lie inside this box.
func (g Grid) CellBox(cells []uint32) vec.MBR {
	d := g.Dim()
	box := vec.MBR{Lo: make(vec.Point, d), Hi: make(vec.Point, d)}
	for i := 0; i < d; i++ {
		lo, hi := g.CellBounds(i, cells[i])
		box.Lo[i] = float32(lo)
		box.Hi[i] = float32(hi)
	}
	return box
}

// MinDist returns the minimum distance from q to the box approximation of
// the encoded point, without allocating.
func (g Grid) MinDist(q vec.Point, cells []uint32, met vec.Metric) float64 {
	switch met {
	case vec.Euclidean:
		var s float64
		for i, v := range q {
			lo, hi := g.CellBounds(i, cells[i])
			dd := vec.AxisDist(float64(v), lo, hi)
			s += dd * dd
		}
		return math.Sqrt(s)
	case vec.Maximum:
		var s float64
		for i, v := range q {
			lo, hi := g.CellBounds(i, cells[i])
			if dd := vec.AxisDist(float64(v), lo, hi); dd > s {
				s = dd
			}
		}
		return s
	default:
		panic("quantize: unknown metric")
	}
}

// MaxDist returns the maximum distance from q to the box approximation of
// the encoded point (the upper bound used to prune candidates).
func (g Grid) MaxDist(q vec.Point, cells []uint32, met vec.Metric) float64 {
	switch met {
	case vec.Euclidean:
		var s float64
		for i, v := range q {
			lo, hi := g.CellBounds(i, cells[i])
			dd := vec.AxisFar(float64(v), lo, hi)
			s += dd * dd
		}
		return math.Sqrt(s)
	case vec.Maximum:
		var s float64
		for i, v := range q {
			lo, hi := g.CellBounds(i, cells[i])
			if dd := vec.AxisFar(float64(v), lo, hi); dd > s {
				s = dd
			}
		}
		return s
	default:
		panic("quantize: unknown metric")
	}
}
