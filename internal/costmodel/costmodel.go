// Package costmodel implements the IQ-tree query cost model of paper
// Section 3.4 (Eq. 6–25). The model predicts the expected time of a
// nearest-neighbor query as
//
//	T = T1st + T2nd + T3rd                             (Eq. 23)
//
// where T1st is the linear scan of the flat directory (Eq. 22), T2nd the
// optimized read of the quantized second level (Eq. 16–21), and T3rd the
// refinement look-ups into exact geometry (Eq. 6–15). T3rd is the
// "variable cost" that depends on how each individual page is quantized;
// T1st and T2nd depend only on the number of pages — the "constant cost"
// of Section 3.5. Correlated data is handled through the fractal dimension
// D_F (Eq. 13–18).
package costmodel

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// Model carries everything needed to evaluate the cost equations for one
// database. It is immutable after construction and safe for concurrent use.
type Model struct {
	// Disk holds the hardware parameters (t_seek, t_xfer, block size).
	Disk store.Config
	// Metric is the query metric (Euclidean or Maximum).
	Metric vec.Metric
	// Dim is the embedding dimensionality d.
	Dim int
	// N is the total number of points in the database.
	N int
	// FractalDim is D_F; set it to Dim for the uniform/independent model.
	FractalDim float64
	// DataSpace is the MBR of the whole database.
	DataSpace vec.MBR
	// DirEntryBytes is the size of one first-level directory entry.
	DirEntryBytes int
	// ExactBlocks is the number of blocks one exact-geometry look-up
	// transfers (usually 1).
	ExactBlocks int
	// RefineFactor scales the refinement cost (default 1 when 0). The
	// builder can set it from an empirical calibration pass: the paper's
	// closed-form refinement probability keeps its shape across
	// quantization levels but its absolute scale can be off on strongly
	// non-uniform data.
	RefineFactor float64
	// K is the number of neighbors the modeled queries request (default
	// 1). Per the paper's footnote, the k-NN extension replaces "the
	// volume expected to contain one point" by the volume expected to
	// contain k points in Eq. 7/14 and Eq. 17.
	K int
}

// k returns the effective neighbor count.
func (m *Model) k() float64 {
	if m.K <= 0 {
		return 1
	}
	return float64(m.K)
}

// PageInfo describes one quantized data page for total-cost evaluation.
type PageInfo struct {
	MBR   vec.MBR
	Count int // points on the page
	Bits  int // quantization level g
}

// euclidean reports whether the model uses L2 volumes; the maximum
// metric uses the L∞ (cube) volume formulas.
func (m *Model) euclidean() bool { return m.Metric == vec.Euclidean }

// sideFloor returns a tiny positive floor for degenerate MBR sides,
// relative to the data-space extent, so densities stay finite when a
// partition is flat in some dimension.
func (m *Model) sideFloor(i int) float64 {
	s := m.DataSpace.Side(i)
	if s <= 0 {
		s = 1
	}
	return s * 1e-9
}

// sides returns the side lengths of mbr floored per sideFloor.
func (m *Model) sides(mbr vec.MBR) []float64 {
	out := make([]float64, m.Dim)
	for i := 0; i < m.Dim; i++ {
		out[i] = math.Max(mbr.Side(i), m.sideFloor(i))
	}
	return out
}

// volume returns the floored volume of mbr.
func (m *Model) volume(mbr vec.MBR) float64 {
	v := 1.0
	for _, s := range m.sides(mbr) {
		v *= s
	}
	return v
}

// PointDensity returns the (fractal) point density ρ_F of a page region
// (Eq. 6 and 13): count / V^(D_F/d).
func (m *Model) PointDensity(mbr vec.MBR, count int) float64 {
	v := m.volume(mbr)
	return float64(count) / math.Pow(v, m.FractalDim/float64(m.Dim))
}

// NNRadius returns the expected k-nearest-neighbor distance inside a page
// region (Eq. 7 and 14, with the footnote's k-NN extension): the radius
// of the query-metric ball expected to contain exactly K points at the
// local density.
func (m *Model) NNRadius(mbr vec.MBR, count int) float64 {
	rho := m.PointDensity(mbr, count)
	if rho <= 0 {
		return 0
	}
	vol := math.Pow(m.k()/rho, float64(m.Dim)/m.FractalDim)
	if m.euclidean() {
		return mathx.SphereRadius(m.Dim, vol)
	}
	return mathx.CubeRadius(m.Dim, vol)
}

// cellSides returns the side lengths of one quantization grid cell of the
// page: MBR sides divided by 2^bits (Eq. 10).
func (m *Model) cellSides(mbr vec.MBR, bits int) []float64 {
	sides := m.sides(mbr)
	scale := math.Pow(2, -float64(bits))
	for i := range sides {
		sides[i] *= scale
	}
	return sides
}

// RefinementProbability returns the probability that a point stored at the
// given quantization level must be refined (its exact geometry loaded)
// during a nearest-neighbor query (Eq. 15). Queries are assumed to follow
// the data distribution: the probability is the expected fraction of query
// points falling into the Minkowski enlargement of the point's grid cell
// by the NN sphere, evaluated at the local fractal density.
func (m *Model) RefinementProbability(mbr vec.MBR, count, bits int) float64 {
	if bits >= quantize.ExactBits {
		return 0 // exact pages never refine
	}
	r := m.NNRadius(mbr, count)
	cell := m.cellSides(mbr, bits)
	var vMink float64
	if m.euclidean() {
		vMink = mathx.MinkowskiBoxSphereEucl(cell, r)
	} else {
		vMink = mathx.MinkowskiBoxSphereMax(cell, r)
	}
	rho := m.PointDensity(mbr, count)
	p := rho * math.Pow(vMink, m.FractalDim/float64(m.Dim)) / float64(m.N)
	return mathx.Clamp(p, 0, 1)
}

// ExactLookupCost returns the time of one refinement access to the exact
// geometry: a random seek plus the transfer of ExactBlocks blocks.
func (m *Model) ExactLookupCost() float64 {
	return m.Disk.Seek + float64(m.ExactBlocks)*m.Disk.Xfer
}

// RefinementCost is the expected third-level cost contributed by one page
// per query: count · P_refinement · lookup cost. This is the "variable
// cost" of the optimization in Section 3.5.
func (m *Model) RefinementCost(mbr vec.MBR, count, bits int) float64 {
	f := m.RefineFactor
	if f <= 0 {
		f = 1
	}
	return f * float64(count) * m.RefinementProbability(mbr, count, bits) * m.ExactLookupCost()
}

// DirectoryCost returns T1st (Eq. 22): one seek plus the sequential
// transfer of n directory entries.
func (m *Model) DirectoryCost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return m.Disk.Seek + float64(m.Disk.Blocks(n*m.DirEntryBytes))*m.Disk.Xfer
}

// ExpectedPageAccesses returns k, the expected number of second-level
// pages a nearest-neighbor query must read out of n (Eq. 16–18), under the
// fractal model with an average (cubic) page region.
func (m *Model) ExpectedPageAccesses(n int) float64 {
	if n <= 0 {
		return 0
	}
	vds := m.volume(m.DataSpace)
	dOverDF := float64(m.Dim) / m.FractalDim
	vMBR := math.Pow(1/float64(n), dOverDF) * vds      // Eq. 16
	vNN := math.Pow(m.k()/float64(m.N), dOverDF) * vds // Eq. 17 (k-NN extension)
	var r float64
	if m.euclidean() {
		r = mathx.SphereRadius(m.Dim, vNN)
	} else {
		r = mathx.CubeRadius(m.Dim, vNN)
	}
	a := math.Pow(vMBR, 1/float64(m.Dim)) // cubic average page side
	sides := make([]float64, m.Dim)
	for i := range sides {
		sides[i] = a
	}
	var vMink float64
	if m.euclidean() {
		vMink = mathx.MinkowskiBoxSphereEucl(sides, r)
	} else {
		vMink = mathx.MinkowskiBoxSphereMax(sides, r)
	}
	k := float64(n) * math.Pow(vMink/vds, m.FractalDim/float64(m.Dim)) // Eq. 18
	return mathx.Clamp(k, 1, float64(n))
}

// SecondLevelCost returns T2nd (Eq. 19–21): the expected time of reading k
// out of n quantized pages with the optimized page-access strategy,
// assuming the k pages are uniformly spread over the file. Gaps up to the
// over-read horizon are read through; larger gaps seek.
func (m *Model) SecondLevelCost(n int) float64 {
	if n <= 0 {
		return 0
	}
	k := m.ExpectedPageAccesses(n)
	return m.optimizedReadCost(n, k)
}

// optimizedReadCost evaluates Eq. 21 numerically for k pages to load out
// of n. The page transfer unit is one quantized page (one block).
func (m *Model) optimizedReadCost(n int, k float64) float64 {
	tp := m.Disk.Xfer // transfer time of one page
	if k >= float64(n) {
		// Degenerates to a full scan of the second level.
		return m.Disk.Seek + float64(n)*tp
	}
	v := 0
	if tp > 0 {
		v = int(m.Disk.Seek / tp)
	}
	// Geometric gap distribution: P(gap = a) = q^(a-1)·(1-q), a ≥ 1.
	q := 1 - k/float64(n)
	var perPage float64
	pow := 1.0 // q^(a-1)
	for a := 1; a <= v; a++ {
		pGap := pow * (1 - q)
		perPage += pGap * float64(a) * tp
		pow *= q
	}
	// pow is now q^v: probability the gap exceeds the horizon → seek.
	perPage += pow * (m.Disk.Seek + tp)
	first := m.Disk.Seek + tp
	if k < 1 {
		k = 1
	}
	return first + (k-1)*perPage
}

// Total evaluates the full model (Eq. 23) for a concrete set of quantized
// pages: directory scan + optimized second-level read + per-page
// refinement cost.
func (m *Model) Total(pages []PageInfo) float64 {
	n := len(pages)
	t := m.DirectoryCost(n) + m.SecondLevelCost(n)
	for _, p := range pages {
		t += m.RefinementCost(p.MBR, p.Count, p.Bits)
	}
	return t
}
