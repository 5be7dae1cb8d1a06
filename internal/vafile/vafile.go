// Package vafile implements the VA-file of Weber, Schek and Blott (VLDB
// 1998), the compression-based comparator of the paper's evaluation: a
// flat signature file holding a b-bits-per-dimension approximation of
// every point, scanned sequentially, plus an exact file consulted for the
// candidates that survive the approximation-based filtering.
//
// Unlike the IQ-tree, the VA-file uses one global grid and one fixed
// number of bits per dimension for the whole database; the paper tunes
// that number by hand per data set (2–8 bits). Both the original
// equi-populated (quantile) cell boundaries and plain uniform boundaries
// are supported.
package vafile

import (
	"errors"
	"math"
	"sort"

	"repro/internal/kernel"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// scanChunk is the number of points bulk-decoded per kernel.UnpackOff
// call during sequential scans. Any multiple of 8 keeps every chunk
// start byte-aligned for every bit width; 256 points keeps the decoded
// codes comfortably inside the L1/L2 caches.
const scanChunk = 256

// chunks iterates the approximation stream in scanChunk-point chunks,
// bulk-decoding each into codes and invoking fn(i, cells) per point.
func (v *VAFile) chunks(buf []byte, fn func(i int, cells []uint32)) {
	codes := make([]uint32, 0, scanChunk*v.dim)
	for base := 0; base < v.n; base += scanChunk {
		cnt := v.n - base
		if cnt > scanChunk {
			cnt = scanChunk
		}
		codes = kernel.UnpackOff(codes, buf, base*v.dim, cnt*v.dim, v.opt.Bits)
		for ii := 0; ii < cnt; ii++ {
			fn(base+ii, codes[ii*v.dim:(ii+1)*v.dim])
		}
	}
}

// Options configures VA-file construction.
type Options struct {
	// Metric is the query metric. Default Euclidean.
	Metric vec.Metric
	// Bits is the number of bits per dimension (1..16). Default 4.
	Bits int
	// Uniform selects uniform cell boundaries instead of the original
	// equi-populated (quantile) boundaries.
	Uniform bool
}

// DefaultOptions returns the classic VA-file configuration.
func DefaultOptions() Options {
	return Options{Metric: vec.Euclidean, Bits: 4}
}

// VAFile is the two-file structure: approximations plus exact data.
type VAFile struct {
	sto    *store.Store
	aFile  *store.File // bit-packed approximations, point order
	eFile  *store.File // exact entries, same order
	dim    int
	n      int
	opt    Options
	bounds [][]float64 // per dimension: 2^bits+1 cell boundaries
}

// Build constructs a VA-file over pts (ids are point indices).
func Build(sto *store.Store, pts []vec.Point, opt Options) (*VAFile, error) {
	if len(pts) == 0 {
		return nil, errors.New("vafile: empty point set")
	}
	if opt.Bits <= 0 {
		opt.Bits = 4
	}
	if opt.Bits > 16 {
		opt.Bits = 16
	}
	v := &VAFile{
		sto: sto,
		dim: len(pts[0]),
		n:   len(pts),
		opt: opt,
	}
	var err error
	if v.aFile, err = sto.NewFile("va.approx"); err != nil {
		return nil, err
	}
	if v.eFile, err = sto.NewFile("va.exact"); err != nil {
		return nil, err
	}
	v.computeBounds(pts)

	w := quantize.NewBitWriter(v.n * v.dim * opt.Bits)
	for _, p := range pts {
		for j := 0; j < v.dim; j++ {
			w.Write(v.cellOf(j, p[j]), opt.Bits)
		}
	}
	if _, _, err := v.aFile.Append(w.Bytes()); err != nil {
		return nil, err
	}

	ids := make([]uint32, len(pts))
	for i := range ids {
		ids[i] = uint32(i)
	}
	if _, _, err := v.eFile.Append(page.MarshalExact(pts, ids)); err != nil {
		return nil, err
	}
	return v, nil
}

// Len returns the number of stored points.
func (v *VAFile) Len() int { return v.n }

// Dim returns the dimensionality.
func (v *VAFile) Dim() int { return v.dim }

// Bits returns the bits per dimension.
func (v *VAFile) Bits() int { return v.opt.Bits }

// computeBounds derives the per-dimension cell boundaries.
func (v *VAFile) computeBounds(pts []vec.Point) {
	cells := 1 << uint(v.opt.Bits)
	v.bounds = make([][]float64, v.dim)
	if v.opt.Uniform {
		mbr := vec.MBROf(pts)
		for j := 0; j < v.dim; j++ {
			b := make([]float64, cells+1)
			lo, hi := float64(mbr.Lo[j]), float64(mbr.Hi[j])
			if hi <= lo {
				hi = lo + 1e-9
			}
			for c := 0; c <= cells; c++ {
				b[c] = lo + (hi-lo)*float64(c)/float64(cells)
			}
			v.bounds[j] = b
		}
		return
	}
	// Equi-populated boundaries from a deterministic sample per dimension.
	// The outermost boundaries are the exact global minima/maxima so that
	// every point provably lies inside its assigned cell (the distance
	// bounds depend on that invariant).
	mbr := vec.MBROf(pts)
	stride := 1
	if len(pts) > 8192 {
		stride = len(pts) / 8192
	}
	for j := 0; j < v.dim; j++ {
		var vals []float64
		for i := 0; i < len(pts); i += stride {
			vals = append(vals, float64(pts[i][j]))
		}
		sort.Float64s(vals)
		b := make([]float64, cells+1)
		for c := 0; c <= cells; c++ {
			idx := c * (len(vals) - 1) / cells
			b[c] = vals[idx]
		}
		b[0] = float64(mbr.Lo[j])
		b[cells] = float64(mbr.Hi[j]) + 1e-9
		v.bounds[j] = b
	}
}

// cellOf returns the cell index of value x along dimension j.
func (v *VAFile) cellOf(j int, x float32) uint32 {
	b := v.bounds[j]
	cells := len(b) - 1
	// Find the first boundary greater than x; the cell is the previous one.
	idx := sort.SearchFloat64s(b[1:], float64(x))
	// b[idx] ≤ x < b[idx+1] (approximately); clamp.
	if idx >= cells {
		idx = cells - 1
	}
	return uint32(idx)
}

// cellBounds returns the coordinate range of cell c along dimension j.
func (v *VAFile) cellBounds(j int, c uint32) (lo, hi float64) {
	b := v.bounds[j]
	return b[c], b[c+1]
}

// lowerUpper returns the lower and upper bound of the distance between q
// and the point approximated by cells, computed per dimension without
// tables: the reference the kernel tables of KNN and RangeSearch are
// tested against.
func (v *VAFile) lowerUpper(q vec.Point, cells []uint32) (lb, ub float64) {
	met := v.opt.Metric
	switch met {
	case vec.Euclidean:
		var l, u float64
		for j := 0; j < v.dim; j++ {
			clo, chi := v.cellBounds(j, cells[j])
			dl := vec.AxisDist(float64(q[j]), clo, chi)
			du := vec.AxisFar(float64(q[j]), clo, chi)
			l += dl * dl
			u += du * du
		}
		return math.Sqrt(l), math.Sqrt(u)
	default: // vec.Maximum
		var l, u float64
		for j := 0; j < v.dim; j++ {
			clo, chi := v.cellBounds(j, cells[j])
			if dl := vec.AxisDist(float64(q[j]), clo, chi); dl > l {
				l = dl
			}
			if du := vec.AxisFar(float64(q[j]), clo, chi); du > u {
				u = du
			}
		}
		return l, u
	}
}

// candidate is a phase-1 survivor.
type candidate struct {
	idx int
	lb  float64
}

// KNN runs the two-phase VA-file nearest-neighbor search: phase 1 scans
// the approximation file, pruning with the kth-smallest upper bound;
// phase 2 visits the surviving candidates in lower-bound order, fetching
// exact points until the lower bound exceeds the kth exact distance.
func (v *VAFile) KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	if k > v.n {
		k = v.n
	}
	// Phase 1: sequential scan of the approximations.
	buf, err := s.Read(v.aFile, 0, v.aFile.Blocks())
	if err != nil {
		return nil, err
	}
	s.ChargeApproxCPU(v.aFile, v.dim, v.n)
	tb := kernel.BoundaryTables(v.bounds, v.opt.Bits, q, v.opt.Metric)

	var ubs vec.KNearest // the k smallest upper bounds
	ubs.Reset(k)
	var cands []candidate
	v.chunks(buf, func(i int, cells []uint32) {
		lb, ub := tb.Bounds(cells)
		if lb <= ubs.Bound() {
			cands = append(cands, candidate{idx: i, lb: lb})
		}
		ubs.Offer(vec.Neighbor{Dist: ub})
	})
	// Drop candidates admitted before the bound tightened.
	kept := cands[:0]
	for _, c := range cands {
		if c.lb <= ubs.Bound() {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a].lb < kept[b].lb })
	tr := s.Trace()
	tr.AddCandidates(len(kept))

	// Phase 2: visit candidates in lower-bound order.
	var res vec.KNearest
	res.Reset(k)
	entrySize := page.ExactEntrySize(v.dim)
	for _, c := range kept {
		if c.lb >= res.Bound() {
			break
		}
		raw, rel, err := s.ReadRange(v.eFile, c.idx*entrySize, entrySize)
		if err != nil {
			return nil, err
		}
		p, id := page.UnmarshalExactEntry(raw[rel:], v.dim)
		tr.AddRefinement(1)
		s.ChargeDistCPU(v.eFile, v.dim, 1)
		res.Offer(vec.Neighbor{ID: id, Dist: v.opt.Metric.Dist(q, p), Point: p})
	}
	return res.Sorted(), nil
}

// RangeSearch returns all points within eps of q.
func (v *VAFile) RangeSearch(s *store.Session, q vec.Point, eps float64) ([]vec.Neighbor, error) {
	buf, err := s.Read(v.aFile, 0, v.aFile.Blocks())
	if err != nil {
		return nil, err
	}
	s.ChargeApproxCPU(v.aFile, v.dim, v.n)
	tr := s.Trace()
	tb := kernel.BoundaryTables(v.bounds, v.opt.Bits, q, v.opt.Metric)
	var out []vec.Neighbor
	var scanErr error
	entrySize := page.ExactEntrySize(v.dim)
	v.chunks(buf, func(i int, cells []uint32) {
		if scanErr != nil {
			return
		}
		lb, _ := tb.Bounds(cells)
		if lb > eps {
			return
		}
		tr.AddCandidates(1)
		raw, rel, err := s.ReadRange(v.eFile, i*entrySize, entrySize)
		if err != nil {
			scanErr = err
			return
		}
		p, id := page.UnmarshalExactEntry(raw[rel:], v.dim)
		tr.AddRefinement(1)
		s.ChargeDistCPU(v.eFile, v.dim, 1)
		if d := v.opt.Metric.Dist(q, p); d <= eps {
			out = append(out, vec.Neighbor{ID: id, Dist: d, Point: p})
		}
	})
	if scanErr != nil {
		return nil, scanErr
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out, nil
}

// WindowQuery returns all points inside the query window w. The
// approximation file filters cells disjoint from the window; only
// candidate cells touch the exact file.
func (v *VAFile) WindowQuery(s *store.Session, w vec.MBR) ([]vec.Neighbor, error) {
	buf, err := s.Read(v.aFile, 0, v.aFile.Blocks())
	if err != nil {
		return nil, err
	}
	s.ChargeApproxCPU(v.aFile, v.dim, v.n)
	tr := s.Trace()
	var out []vec.Neighbor
	var scanErr error
	entrySize := page.ExactEntrySize(v.dim)
	v.chunks(buf, func(i int, cells []uint32) {
		if scanErr != nil {
			return
		}
		for j := 0; j < v.dim; j++ {
			clo, chi := v.cellBounds(j, cells[j])
			if chi < float64(w.Lo[j]) || clo > float64(w.Hi[j]) {
				return
			}
		}
		tr.AddCandidates(1)
		raw, rel, err := s.ReadRange(v.eFile, i*entrySize, entrySize)
		if err != nil {
			scanErr = err
			return
		}
		p, id := page.UnmarshalExactEntry(raw[rel:], v.dim)
		tr.AddRefinement(1)
		s.ChargeDistCPU(v.eFile, v.dim, 1)
		if w.Contains(p) {
			out = append(out, vec.Neighbor{ID: id, Point: p})
		}
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}
