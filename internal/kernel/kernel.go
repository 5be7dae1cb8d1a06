// Package kernel provides the pure-Go compute kernels of the quantized
// filter step: per-query distance lookup tables, word-wise bulk code
// unpackers, and reusable scratch arenas.
//
// The IQ-tree's filter spends almost all of its CPU computing the
// MINDIST/MAXDIST of grid-cell approximations (Grid.MinDist/MaxDist
// re-derive cell bounds with two divisions per dimension per point) and
// unpacking codes one bit-field at a time through quantize.BitReader.
// This package replaces both with the asymmetric-distance-computation
// trick of the composite-quantization literature: for a fixed query and
// page grid, the axis contribution of every one of the 2^g cells along
// every dimension is precomputed once, reducing the per-point bound
// computation to 2·d table lookups and adds, with an exact early-abandon
// against the current prune radius.
//
// Everything here is bit-identical to the naive quantize.Grid math: the
// tables store exactly the float64 values Grid.CellBounds +
// vec.AxisDist/AxisFar would produce, and the accumulation runs in the
// same dimension order, so every distance bound — and therefore every
// query result and every simulated cost figure — is unchanged. Levels
// g ≤ 8 (≤ 256 cells per dimension) get tables; g ∈ {16, 32} fall back
// to a precomputed-edge path that hoists the per-dimension division out
// of the point loop (see DESIGN.md §9 for the break-even analysis). The
// VA-file's global grid, whose cells are not evenly spaced, gets its
// tables from its cell boundaries (BoundaryTables).
package kernel

import (
	"math"

	"repro/internal/quantize"
	"repro/internal/vec"
)

// TableMaxBits is the largest quantization level that gets per-cell
// lookup tables; wider codes use the precomputed-edge path (a 2^16-cell
// table would cost far more to build than any page saves).
const TableMaxBits = 8

// tableMinPoints is the page population below which building a
// cells-entry table costs more than the per-point savings recoup.
// Building one table entry costs about as much as bounding one
// point-dimension the edge way, so the table pays off once the page
// holds a reasonable fraction of 2^g points; sparsely filled pages keep
// the edge path (both paths are exact, so this is purely a cost knob).
func tableMinPoints(cells int) int { return cells / 4 }

// Tables holds the per-query, per-grid distance kernel state: either the
// cell lookup tables (g ≤ 8) or the precomputed grid edges (g ∈ {16,32}
// and sparsely populated small-g pages).
type Tables struct {
	met    vec.Metric
	dim    int
	bits   int
	exact  bool // g = 32: codes are raw float32 bit patterns
	useTab bool

	// Table path: tab[(i<<bits|c)*2] is the minimum and
	// tab[(i<<bits|c)*2+1] the maximum axis contribution of cell c along
	// dimension i — squared for the Euclidean metric, raw for L∞ —
	// exactly as Grid.MinDist/MaxDist would accumulate them.
	tab []float64

	// Edge path: per-dimension grid origin and cell width (w = 0 for a
	// degenerate dimension, reproducing CellBounds' side ≤ 0 branch),
	// plus the query coordinates widened to float64 once.
	lo, w, q []float64
}

// Metric returns the metric the tables were built for.
func (t *Tables) Metric() vec.Metric { return t.met }

// build populates t for query q over grid g. count is the number of
// points the caller will bound with these tables (a cost hint for the
// table-vs-edge decision; pass a negative count to force tables whenever
// the level allows them). Buffers are reused across builds.
func (t *Tables) build(g quantize.Grid, q vec.Point, met vec.Metric, count int) {
	d := g.Dim()
	t.met, t.dim, t.bits = met, d, g.Bits
	t.exact = g.Exact()
	t.useTab = false
	if !t.exact && g.Bits <= TableMaxBits {
		cells := 1 << uint(g.Bits)
		if count < 0 || count >= tableMinPoints(cells) {
			t.buildTab(g, q, met, cells)
			return
		}
	}
	t.buildEdges(g, q)
}

// buildTab fills the per-cell contribution tables. The cell-bound
// arithmetic replicates Grid.CellBounds exactly, with the division
// hoisted out of the cell loop.
func (t *Tables) buildTab(g quantize.Grid, q vec.Point, met vec.Metric, cells int) {
	t.useTab = true
	d := t.dim
	t.tab = growF64(t.tab, d*cells*2)
	cellsF := float64(int64(1) << uint(g.Bits))
	eucl := met == vec.Euclidean
	for i := 0; i < d; i++ {
		qi := float64(q[i])
		l := float64(g.MBR.Lo[i])
		side := float64(g.MBR.Hi[i]) - l
		w := 0.0
		if side > 0 {
			w = side / cellsF
		}
		row := t.tab[i*cells*2 : (i+1)*cells*2]
		for c := 0; c < cells; c++ {
			lo := l + float64(c)*w
			hi := lo + w
			dl, du := vec.AxisDist(qi, lo, hi), vec.AxisFar(qi, lo, hi)
			if eucl {
				dl, du = dl*dl, du*du
			}
			row[2*c], row[2*c+1] = dl, du
		}
	}
}

// BoundaryTables returns the lookup tables of query q over a global grid
// given by its per-dimension cell boundaries: cell c of dimension i
// spans [bounds[i][c], bounds[i][c+1]], and every dimension has 2^bits
// cells. Unlike grid tables they are built at every level, as the VA-file
// scans every point against one grid.
func BoundaryTables(bounds [][]float64, bits int, q vec.Point, met vec.Metric) *Tables {
	cells := 1 << uint(bits)
	t := &Tables{met: met, dim: len(bounds), bits: bits, useTab: true, tab: make([]float64, len(bounds)*cells*2)}
	eucl := met == vec.Euclidean
	for i, b := range bounds {
		qi, row := float64(q[i]), t.tab[i*cells*2:(i+1)*cells*2]
		for c := 0; c < cells; c++ {
			dl, du := vec.AxisDist(qi, b[c], b[c+1]), vec.AxisFar(qi, b[c], b[c+1])
			if eucl {
				dl, du = dl*dl, du*du
			}
			row[2*c], row[2*c+1] = dl, du
		}
	}
	return t
}

// buildEdges precomputes the per-dimension grid origin and cell width so
// the per-point bound needs no division.
func (t *Tables) buildEdges(g quantize.Grid, q vec.Point) {
	d := t.dim
	t.lo = growF64(t.lo, d)
	t.w = growF64(t.w, d)
	t.q = growF64(t.q, d)
	for i := 0; i < d; i++ {
		t.q[i] = float64(q[i])
	}
	if t.exact {
		return
	}
	cellsF := float64(int64(1) << uint(g.Bits))
	for i := 0; i < d; i++ {
		l := float64(g.MBR.Lo[i])
		side := float64(g.MBR.Hi[i]) - l
		t.lo[i] = l
		if side > 0 {
			t.w[i] = side / cellsF
		} else {
			t.w[i] = 0
		}
	}
}

// cellSpan returns the coordinate range of cell c along dimension i on
// the edge path, replicating Grid.CellBounds bit for bit.
func (t *Tables) cellSpan(i int, c uint32) (lo, hi float64) {
	if t.exact {
		v := float64(math.Float32frombits(c))
		return v, v
	}
	lo = t.lo[i] + float64(c)*t.w[i]
	hi = lo + t.w[i]
	return lo, hi
}

// Bounds returns both distance bounds in one pass over the codes.
func (t *Tables) Bounds(codes []uint32) (lb, ub float64) {
	sl, su := t.accumBoth(codes, math.Inf(1), math.Inf(1))
	return t.finalize(sl), t.finalize(su)
}

// BoundsPruned computes both bounds with exact early-abandon: lbT and
// ubT are accumulator-domain thresholds (see SqThreshold). When pruned
// is true, the final lower bound is guaranteed ≥ the distance lbT was
// derived from AND the final upper bound ≥ the one ubT was derived
// from, so the caller may skip the point entirely; lb/ub are then
// meaningless. When pruned is false, lb and ub are the exact bounds.
func (t *Tables) BoundsPruned(codes []uint32, lbT, ubT float64) (lb, ub float64, pruned bool) {
	sl, su := t.accumBoth(codes, lbT, ubT)
	if sl >= lbT && su >= ubT {
		return 0, 0, true
	}
	return t.finalize(sl), t.finalize(su), false
}

// MinDistPruned computes the lower bound with exact early-abandon
// against the accumulator-domain threshold lbT: pruned means the final
// lower bound is certainly ≥ the distance lbT was derived from.
func (t *Tables) MinDistPruned(codes []uint32, lbT float64) (lb float64, pruned bool) {
	var sl float64
	switch {
	case t.useTab:
		tab, bits := t.tab, uint(t.bits)
		if t.met == vec.Maximum {
			for i, c := range codes {
				if v := tab[(i<<bits|int(c))*2]; v > sl {
					sl = v
				}
				if sl >= lbT {
					return 0, true
				}
			}
		} else {
			for i, c := range codes {
				sl += tab[(i<<bits|int(c))*2]
				if sl >= lbT {
					return 0, true
				}
			}
		}
	case t.met == vec.Maximum:
		for i, c := range codes {
			lo, hi := t.cellSpan(i, c)
			if v := vec.AxisDist(t.q[i], lo, hi); v > sl {
				sl = v
			}
			if sl >= lbT {
				return 0, true
			}
		}
	default: // vec.Euclidean
		for i, c := range codes {
			lo, hi := t.cellSpan(i, c)
			v := vec.AxisDist(t.q[i], lo, hi)
			sl += v * v
			if sl >= lbT {
				return 0, true
			}
		}
	}
	return t.finalize(sl), false
}

// accumBoth walks the codes once accumulating both sides, abandoning as
// soon as both partial accumulators have crossed their thresholds (the
// accumulators are monotone in the dimension index, so the final values
// would cross them too).
func (t *Tables) accumBoth(codes []uint32, lbT, ubT float64) (sl, su float64) {
	if t.useTab {
		tab, bits := t.tab, uint(t.bits)
		if t.met == vec.Maximum {
			for i, c := range codes {
				j := (i<<bits | int(c)) * 2
				if v := tab[j]; v > sl {
					sl = v
				}
				if v := tab[j+1]; v > su {
					su = v
				}
				if sl >= lbT && su >= ubT {
					return sl, su
				}
			}
		} else {
			for i, c := range codes {
				j := (i<<bits | int(c)) * 2
				sl += tab[j]
				su += tab[j+1]
				if sl >= lbT && su >= ubT {
					return sl, su
				}
			}
		}
		return sl, su
	}
	eucl := t.met == vec.Euclidean
	maxm := t.met == vec.Maximum
	for i, c := range codes {
		lo, hi := t.cellSpan(i, c)
		dl := vec.AxisDist(t.q[i], lo, hi)
		du := vec.AxisFar(t.q[i], lo, hi)
		if eucl {
			dl, du = dl*dl, du*du
		}
		if maxm {
			if dl > sl {
				sl = dl
			}
			if du > su {
				su = du
			}
		} else {
			sl += dl
			su += du
		}
		if sl >= lbT && su >= ubT {
			return sl, su
		}
	}
	return sl, su
}

// finalize maps an accumulator value to the metric's distance domain.
func (t *Tables) finalize(s float64) float64 {
	if t.met == vec.Euclidean {
		return math.Sqrt(s)
	}
	return s
}

// SqThreshold converts a distance threshold into the kernel's
// accumulator domain: the returned T guarantees that any accumulator
// value acc ≥ T finalizes to a distance ≥ thresh (for the Euclidean
// metric the accumulator is the squared sum, and T is nudged up until
// the correctly rounded sqrt of T clears thresh, so the implication is
// exact in float64). Abandon decisions made against T are therefore
// identical to decisions made against the fully finalized distance.
func SqThreshold(met vec.Metric, thresh float64) float64 {
	if met != vec.Euclidean {
		return thresh
	}
	if math.IsInf(thresh, 1) {
		return thresh
	}
	s := thresh * thresh
	for !math.IsInf(s, 1) && math.Sqrt(s) < thresh {
		s = math.Nextafter(s, math.Inf(1))
	}
	return s
}

// WindowTable is the window-query analogue of Tables: per dimension and
// cell, whether the cell's coordinate range intersects the query window
// — exactly the per-dimension test vec.MBR.Intersects applies to
// Grid.CellBox output (the cross-dimension AND is metric-free).
type WindowTable struct {
	dim    int
	bits   int
	exact  bool
	useTab bool
	ok     []bool // dim << bits entries
	lo, w  []float64
	wlo    []float32
	whi    []float32
}

// build populates wt for window win over grid g; count is the same cost
// hint Tables.build takes.
func (wt *WindowTable) build(g quantize.Grid, win vec.MBR, count int) {
	d := g.Dim()
	wt.dim, wt.bits = d, g.Bits
	wt.exact = g.Exact()
	wt.useTab = false
	wt.wlo = growF32(wt.wlo, d)
	wt.whi = growF32(wt.whi, d)
	for i := 0; i < d; i++ {
		wt.wlo[i], wt.whi[i] = win.Lo[i], win.Hi[i]
	}
	if !wt.exact && g.Bits <= TableMaxBits {
		cells := 1 << uint(g.Bits)
		if count < 0 || count >= tableMinPoints(cells) {
			wt.buildTab(g, win, cells)
			return
		}
	}
	wt.buildEdges(g)
}

func (wt *WindowTable) buildTab(g quantize.Grid, win vec.MBR, cells int) {
	wt.useTab = true
	d := wt.dim
	need := d * cells
	if cap(wt.ok) < need {
		wt.ok = make([]bool, need)
	}
	wt.ok = wt.ok[:need]
	cellsF := float64(int64(1) << uint(g.Bits))
	for i := 0; i < d; i++ {
		l := float64(g.MBR.Lo[i])
		side := float64(g.MBR.Hi[i]) - l
		w := 0.0
		if side > 0 {
			w = side / cellsF
		}
		row := wt.ok[i*cells : (i+1)*cells]
		for c := 0; c < cells; c++ {
			lo := l + float64(c)*w
			hi := lo + w
			// The naive path casts CellBox corners to float32 before
			// comparing; replicate that exactly.
			row[c] = !(wt.whi[i] < float32(lo) || float32(hi) < wt.wlo[i])
		}
	}
}

func (wt *WindowTable) buildEdges(g quantize.Grid) {
	d := wt.dim
	wt.lo = growF64(wt.lo, d)
	wt.w = growF64(wt.w, d)
	if wt.exact {
		return
	}
	cellsF := float64(int64(1) << uint(g.Bits))
	for i := 0; i < d; i++ {
		l := float64(g.MBR.Lo[i])
		side := float64(g.MBR.Hi[i]) - l
		wt.lo[i] = l
		if side > 0 {
			wt.w[i] = side / cellsF
		} else {
			wt.w[i] = 0
		}
	}
}

// Hits reports whether the cell box of codes intersects the window —
// identical to win.Intersects(g.CellBox(codes)).
func (wt *WindowTable) Hits(codes []uint32) bool {
	if wt.useTab {
		ok, bits := wt.ok, uint(wt.bits)
		for i, c := range codes {
			if !ok[i<<bits|int(c)] {
				return false
			}
		}
		return true
	}
	for i, c := range codes {
		var lo, hi float64
		if wt.exact {
			v := float64(math.Float32frombits(c))
			lo, hi = v, v
		} else {
			lo = wt.lo[i] + float64(c)*wt.w[i]
			hi = lo + wt.w[i]
		}
		if wt.whi[i] < float32(lo) || float32(hi) < wt.wlo[i] {
			return false
		}
	}
	return true
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growF32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
