package core

import (
	"container/heap"
	"runtime"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/page"
	"repro/internal/par"
	"repro/internal/quantize"
	"repro/internal/vec"
)

// builder performs the bulk construction of Section 3.3: top-down
// partitioning along the dimension of largest MBR extension (the
// bulk-load strategy of [4]) followed by the optimal-quantization
// refinement of Section 3.5: it plans a page layout without touching a
// store. Planning (frontier) reads a row-major copy of the points and
// uses up to GOMAXPROCS goroutines.
type builder struct {
	geometry
	opt   Options
	model costmodel.Model // calibrateRefinement sets its RefineFactor
	pts   []vec.Point     // pts[i] has id i
	perm  []int32         // permutation of point indices; nodes own ranges of it
	// rows is the planning copy: point perm[i] at rows[i*dim:(i+1)*dim],
	// moved together with perm. frontier drops it once the plan exists.
	rows []float32
}

// bnode is a node of the split tree (paper Fig. 5). Leaves of the final
// frontier become quantized data pages.
type bnode struct {
	lo, hi      int // perm range [lo, hi)
	mbr         vec.MBR
	bits        int     // maximal quantization level fitting the page
	varCost     float64 // refinement cost at `bits` (the variable cost)
	left, right *bnode
	benefit     float64 // varCost − left.varCost − right.varCost
	splitStep   int     // step at which the greedy split this node; -1 = never
	hidx        int     // index in the benefit heap
}

func (n *bnode) count() int { return n.hi - n.lo }

func newBuilder(g geometry, opt Options, model costmodel.Model, pts []vec.Point) *builder {
	perm := make([]int32, len(pts))
	rows := make([]float32, len(pts)*g.dim)
	for i, p := range pts {
		perm[i] = int32(i)
		copy(rows[i*g.dim:], p)
	}
	return &builder{geometry: g, opt: opt, model: model, pts: pts, perm: perm, rows: rows}
}

// frontier computes the final page layout (partitioning + optimal
// quantization): the planning half of the build, which newPlan lists.
//
// The initial splits, the split tree of each initial range and the
// calibration's per-query radii and per-range counts run in parallel.
// None of them can depend on the schedule: every quickselect makes the
// comparisons and swaps a single goroutine makes, on a perm range no
// other goroutine touches, and the calibration sums integer counts.
// The optimizer's heap walk stays serial.
func (b *builder) frontier() []*bnode {
	ranges := b.initialRanges()
	if b.opt.Quantize && b.opt.FixedBits == 0 {
		b.model.RefineFactor = b.calibrateRefinement(ranges)
	}
	roots := make([]*bnode, len(ranges))
	par.For(len(ranges), func() func(int) {
		return func(i int) { roots[i] = b.newNode(ranges[i].lo, ranges[i].hi, ranges[i].mbr) }
	})
	var frontier []*bnode
	if b.opt.Quantize && b.opt.FixedBits == 0 {
		frontier = b.optimize(roots)
	} else {
		// Fixed-level ablation: split until every page fits the fixed
		// level, then store all pages at it. The "no quantization"
		// ablation is the 32-bit exact level.
		bits := b.opt.FixedBits
		if bits == 0 {
			bits = quantize.ExactBits
		}
		for _, r := range roots {
			frontier = append(frontier, b.splitToFixed(r, bits)...)
		}
	}
	b.rows = nil
	return frontier
}

// partRange is an initial partition before split-tree nodes exist.
type partRange struct {
	lo, hi int
	mbr    vec.MBR
}

// mbrOf computes the MBR of the perm range [lo, hi).
func (b *builder) mbrOf(lo, hi int) vec.MBR {
	d := b.dim
	m := vec.NewMBR(d)
	for off := lo * d; off < hi*d; off += d {
		m.Extend(b.rows[off : off+d])
	}
	return m
}

// initialPartitions splits the data space top-down until every partition
// fits a quantized page at the 1-bit level (Section 3.3), returning the
// partitions in left-to-right (disk layout) order. Following the
// bulk-load strategy of [4], the split position is aligned to a multiple
// of the page capacity so that pages come out (nearly) full — a packed
// layout, not a 50% median split.
func (b *builder) initialRanges() []partRange {
	return b.splitRanges(0, len(b.perm), b.mbrOf(0, len(b.perm)), runtime.GOMAXPROCS(0))
}

// splitRanges partitions the perm range [lo, hi) for initialRanges.
// While workers > 1 the left half runs on its own goroutine with half of
// them; the halves own disjoint ranges and are concatenated in order.
func (b *builder) splitRanges(lo, hi int, mbr vec.MBR, workers int) []partRange {
	if hi-lo <= b.pageCapacity(1) {
		return []partRange{{lo: lo, hi: hi, mbr: mbr}}
	}
	mid := b.packedSplit(lo, hi, mbr, b.pageCapacity(1))
	var left []partRange
	var wg sync.WaitGroup
	wg.Add(1)
	splitLeft := func() { defer wg.Done(); left = b.splitRanges(lo, mid, b.mbrOf(lo, mid), workers/2) }
	if workers > 1 {
		go splitLeft()
	} else {
		splitLeft()
	}
	right := b.splitRanges(mid, hi, b.mbrOf(mid, hi), workers-workers/2)
	wg.Wait()
	return append(left, right...)
}

// packedSplit reorders perm[lo:hi] along the MBR's longest dimension and
// returns a split index aligned to the page capacity: the left side gets
// ⌊pages/2⌋ full pages, so leaves end up packed.
func (b *builder) packedSplit(lo, hi int, mbr vec.MBR, capacity int) int {
	count := hi - lo
	pages := (count + capacity - 1) / capacity
	mid := lo + capacity*(pages/2)
	if mid <= lo || mid >= hi {
		mid = lo + count/2
	}
	dim, _ := mbr.MaxSide()
	b.selectNth(lo, hi, mid, dim)
	return mid
}

// newNode creates a split-tree node, computing its affordable quantization
// level and variable (refinement) cost, and eagerly preparing its trial
// split (the optimizer's determine_benefits step).
func (b *builder) newNode(lo, hi int, mbr vec.MBR) *bnode {
	n := &bnode{lo: lo, hi: hi, mbr: mbr, splitStep: -1, hidx: -1}
	n.bits = b.fitBits(n.count())
	if n.bits == 0 {
		panic("core: partition does not fit at 1 bit") // initial split guarantees it does
	}
	if !b.opt.Quantize {
		return n
	}
	n.varCost = b.model.RefinementCost(n.mbr, n.count(), n.bits)
	if n.bits < quantize.ExactBits && n.count() >= 2 {
		mid := b.medianSplit(lo, hi, mbr)
		n.left = b.newNode(lo, mid, b.mbrOf(lo, mid))
		n.right = b.newNode(mid, hi, b.mbrOf(mid, hi))
		n.benefit = n.varCost - n.left.varCost - n.right.varCost
	}
	return n
}

// splitToFixed recursively splits a node until every leaf fits at the
// given quantization level, which every leaf is then stored at, packing
// pages like the initial partitioning does.
func (b *builder) splitToFixed(n *bnode, bits int) []*bnode {
	if b.pageCapacity(bits) >= n.count() {
		n.bits = bits
		return []*bnode{n}
	}
	mid := b.packedSplit(n.lo, n.hi, n.mbr, b.pageCapacity(bits))
	l := &bnode{lo: n.lo, hi: mid, mbr: b.mbrOf(n.lo, mid), splitStep: -1}
	r := &bnode{lo: mid, hi: n.hi, mbr: b.mbrOf(mid, n.hi), splitStep: -1}
	return append(b.splitToFixed(l, bits), b.splitToFixed(r, bits)...)
}

// medianSplit reorders perm[lo:hi] so that the lower half along the MBR's
// longest dimension precedes the upper half, and returns the split index.
func (b *builder) medianSplit(lo, hi int, mbr vec.MBR) int {
	dim, _ := mbr.MaxSide()
	mid := lo + (hi-lo)/2
	b.selectNth(lo, hi, mid, dim)
	return mid
}

// selectNth partially sorts perm[lo:hi] by coordinate `dim` such that the
// element at position nth is in its sorted place and everything before it
// compares ≤ (quickselect with median-of-three pivoting; deterministic).
// Each row moves with its perm entry.
func (b *builder) selectNth(lo, hi, nth, dim int) {
	d := b.dim
	coord := func(i int) float32 { return b.rows[i*d+dim] }
	swap := func(i, j int) {
		b.perm[i], b.perm[j] = b.perm[j], b.perm[i]
		ri, rj := b.rows[i*d:(i+1)*d], b.rows[j*d:(j+1)*d]
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
	}
	for hi-lo > 1 {
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		a, c, e := coord(lo), coord(mid), coord(hi-1)
		pivot := a
		if (c >= a && c <= e) || (c <= a && c >= e) {
			pivot = c
		} else if (e >= a && e <= c) || (e <= a && e >= c) {
			pivot = e
		}
		// Three-way partition (Dutch national flag) to cope with heavy
		// duplicate coordinates.
		lt, i, gt := lo, lo, hi
		for i < gt {
			v := coord(i)
			switch {
			case v < pivot:
				if lt != i {
					swap(lt, i)
				}
				lt++
				i++
			case v > pivot:
				gt--
				swap(gt, i)
			default:
				i++
			}
		}
		switch {
		case nth < lt:
			hi = lt
		case nth >= gt:
			lo = gt
		default:
			return // nth lands in the pivot run
		}
	}
}

// benefitHeap is a max-heap of splittable nodes ordered by split benefit.
type benefitHeap []*bnode

func (h benefitHeap) Len() int            { return len(h) }
func (h benefitHeap) Less(i, j int) bool  { return h[i].benefit > h[j].benefit }
func (h benefitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].hidx = i; h[j].hidx = j }
func (h *benefitHeap) Push(x interface{}) { n := x.(*bnode); n.hidx = len(*h); *h = append(*h, n) }
func (h *benefitHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	n.hidx = -1
	*h = old[:len(old)-1]
	return n
}

// optimize runs the optimal-quantization algorithm of Section 3.5: starting
// from the initial partitions, greedily split the partition with the
// largest variable-cost benefit, record the full-model cost after every
// step, and return the frontier of the cheapest recorded step.
func (b *builder) optimize(roots []*bnode) []*bnode {
	var h benefitHeap
	totalVar := 0.0
	nPages := len(roots)
	for _, r := range roots {
		totalVar += r.varCost
		if r.left != nil {
			heap.Push(&h, r)
		}
	}
	constCost := func(n int) float64 {
		return b.model.DirectoryCost(n) + b.model.SecondLevelCost(n)
	}
	bestCost := constCost(nPages) + totalVar
	bestStep := 0
	step := 0
	for h.Len() > 0 {
		n := heap.Pop(&h).(*bnode)
		n.splitStep = step
		step++
		totalVar += n.left.varCost + n.right.varCost - n.varCost
		nPages++
		if n.left.left != nil {
			heap.Push(&h, n.left)
		}
		if n.right.left != nil {
			heap.Push(&h, n.right)
		}
		if c := constCost(nPages) + totalVar; c < bestCost {
			bestCost = c
			bestStep = step
		}
	}
	// Undo all splits past the best step: the frontier consists of the
	// shallowest nodes not split before bestStep.
	var frontier []*bnode
	var collect func(n *bnode)
	collect = func(n *bnode) {
		if n.splitStep >= 0 && n.splitStep < bestStep {
			collect(n.left)
			collect(n.right)
			return
		}
		frontier = append(frontier, n)
	}
	for _, r := range roots {
		collect(r)
	}
	return frontier
}

// planPage is one page of a computed layout. Its points are
// perm[lo:hi] of the builder that planned it, and mbr is their MBR as
// the split tree computed it.
type planPage struct {
	lo, hi int
	bits   int
	mbr    vec.MBR
}

// newPlan lays out pts for geometry g under opt and the cost model
// model: the planning NewPlan and the incremental reoptimizer share.
// The plan lists the frontier's pages in disk layout order, each naming
// its points by a range of the builder's perm rather than holding them.
func newPlan(g geometry, opt Options, model costmodel.Model, pts []vec.Point) *Plan {
	b := newBuilder(g, opt, model, pts)
	frontier := b.frontier()
	pages := make([]planPage, len(frontier))
	for i, n := range frontier {
		pages[i] = planPage{lo: n.lo, hi: n.hi, bits: n.bits, mbr: n.mbr}
	}
	return &Plan{opt: opt, pts: pts, perm: b.perm, pages: pages, model: b.model}
}

// setPlanned returns the epoch p lays out before any of its pages is
// written: entry i is planned page i, with its first point's index in
// perm, and setPage sets the rest but the positions. The split-tree
// MBRs are copied into one slab for the epoch, which its grids share.
func (p *Plan) setPlanned() *snapshot {
	n, d := len(p.pages), p.model.Dim
	g := geometry{dim: d, blockSize: p.model.Disk.BlockSize}
	sn := &snapshot{n: len(p.perm), dataSpace: p.model.DataSpace.Clone(), model: p.model}
	sn.model.DataSpace = sn.dataSpace
	sn.entries = make([]page.DirEntry, n)
	sn.grids = make([]quantize.Grid, n)
	sn.free = make([]bool, n)
	sn.entryAt = make([]int32, 0, n)
	slab := make([]float32, 2*d*n)
	for i, pp := range p.pages {
		box := slab[2*i*d : 2*(i+1)*d : 2*(i+1)*d]
		mbr := vec.MBR{Lo: box[:d:d], Hi: box[d:]}
		copy(mbr.Lo, pp.mbr.Lo)
		copy(mbr.Hi, pp.mbr.Hi)
		sn.entries[i].Base = uint32(pp.lo)
		g.setPage(sn, i, pp.hi-pp.lo, pp.bits, mbr)
	}
	return sn
}

// setPage sets everything writePages needs of entry i of sn but its
// positions: the page's point count, level and MBR, the extent of its
// exact page (none at 32 bits) and its grid.
func (g geometry) setPage(sn *snapshot, i, count, bits int, mbr vec.MBR) {
	e := &sn.entries[i]
	e.Count, e.Bits, e.MBR, e.EBlocks = uint32(count), uint8(bits), mbr, 0
	if bits < quantize.ExactBits {
		e.EBlocks = uint32((count*page.ExactEntrySize(g.dim) + g.blockSize - 1) / g.blockSize)
	}
	sn.grids[i] = quantize.NewGrid(mbr, bits)
}

// chunkBytes bounds the page bytes Plan.Build encodes between two
// appends: a chunk is the next pages in layout order whose quantized and
// exact pages fit in it together, or one page that alone does not.
const chunkBytes = 1 << 20

// writePlanned writes the pages of p, set in sn by setPlanned, into the
// empty quantized and exact files of sn's generation, a chunk at a time
// through writePages. A chunk's points are gathered into one slab of
// pointers into p.pts, and its pages are encoded into two block-aligned
// buffers reused for every chunk, so encoding allocates nothing per
// page.
func (t *Tree) writePlanned(p *Plan, sn *snapshot) error {
	bs := t.blockSize
	var chunks []int // first page of every chunk, then the page count
	var qBytes, eBytes, maxQ, maxE, maxPts int
	for i, e := range sn.entries {
		eb := int(e.EBlocks) * bs
		if i == 0 || qBytes+eBytes+bs+eb > chunkBytes {
			chunks, qBytes, eBytes = append(chunks, i), 0, 0
		}
		qBytes, eBytes = qBytes+bs, eBytes+eb
		maxQ, maxE = max(maxQ, qBytes), max(maxE, eBytes)
		maxPts = max(maxPts, p.pages[i].hi-p.pages[chunks[len(chunks)-1]].lo)
	}
	chunks = append(chunks, len(sn.entries))

	qbuf, ebuf := make([]byte, maxQ), make([]byte, maxE)
	pts, ids := make([]vec.Point, maxPts), make([]uint32, maxPts)
	for c := 0; c+1 < len(chunks); c++ {
		a, b := chunks[c], chunks[c+1]
		lo, hi := p.pages[a].lo, p.pages[b-1].hi
		for j, idx := range p.perm[lo:hi] {
			pts[j], ids[j] = p.pts[idx], uint32(idx)
		}
		if err := t.writePages(sn, a, b, pts[:hi-lo], ids[:hi-lo], qbuf, ebuf); err != nil {
			return err
		}
	}
	return nil
}

// writePages is the one code that appends pages, for the bulk load, the
// reoptimizer and the copy-on-write rewrites alike. It writes the pages
// of sn's entries [a, b), whose points and ids are pts and ids in entry
// order, each entry set by setPage. par.For workers encode the pages
// into qbuf and ebuf, which must hold them block-aligned; then the
// exact pages go to the end of sn's exact file in one append and the
// quantized pages to the end of its quantized file in another. Only
// once both appends have succeeded does it set the entries' positions
// and make each entry the owner of its quantized page: a failed append,
// which is also the store's sticky error, leaves the positions as they
// were and is returned.
func (t *Tree) writePages(sn *snapshot, a, b int, pts []vec.Point, ids []uint32, qbuf, ebuf []byte) error {
	bs := t.blockSize
	// Page a+k holds pts[first[k]:first[k+1]] and ebuf's blocks
	// [eoff[k], eoff[k+1]).
	first, eoff := make([]int, b-a+1), make([]int, b-a+1)
	for k := 0; k < b-a; k++ {
		e := &sn.entries[a+k]
		first[k+1], eoff[k+1] = first[k]+int(e.Count), eoff[k]+int(e.EBlocks)
	}
	par.For(b-a, func() func(int) {
		return func(k int) {
			encodePage(qbuf[k*bs:(k+1)*bs], ebuf[eoff[k]*bs:eoff[k+1]*bs], sn.grids[a+k],
				pts[first[k]:first[k+1]], ids[first[k]:first[k+1]])
		}
	})
	epos := 0
	if eblocks := eoff[b-a]; eblocks > 0 {
		var err error
		if epos, _, err = sn.gen.e.Append(ebuf[:eblocks*bs]); err != nil {
			return err
		}
	}
	qpos, _, err := sn.gen.q.Append(qbuf[:(b-a)*bs])
	if err != nil {
		return err
	}
	for k := 0; k < b-a; k++ {
		e := &sn.entries[a+k]
		e.QPos, e.EPos = uint32(qpos+k), 0
		if e.EBlocks > 0 {
			e.EPos = uint32(epos + eoff[k])
		}
		sn.setOwner(qpos+k, a+k)
	}
	return nil
}

// encodePage encodes one page of pts with their ids under grid: its
// quantized page into qbuf and, at a compressed level, its exact page
// into ebuf; a 32-bit page holds its ids itself and has no exact page.
// It is the one page encoder, which writePages runs on its workers.
func encodePage(qbuf, ebuf []byte, grid quantize.Grid, pts []vec.Point, ids []uint32) {
	if grid.Exact() {
		page.EncodeQPage(qbuf, grid, pts, ids)
		return
	}
	page.EncodeExact(ebuf, pts, ids)
	page.EncodeQPage(qbuf, grid, pts, nil)
}
