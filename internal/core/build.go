package core

import (
	"container/heap"
	"runtime"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/page"
	"repro/internal/par"
	"repro/internal/quantize"
	"repro/internal/store"
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
// quantization): the planning half of the build, shared by NewPlan and
// the incremental reoptimizer, which wants the plan up front and the
// page writes spread over many steps.
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
	switch {
	case b.opt.FixedBits > 0:
		// Fixed-level ablation: split until every page fits the fixed
		// level, then store all pages at it.
		for _, r := range roots {
			frontier = append(frontier, b.splitToFixed(r, b.opt.FixedBits)...)
		}
	case b.opt.Quantize:
		frontier = b.optimize(roots)
	default:
		// "No quantization" ablation: split all the way to exact pages.
		for _, r := range roots {
			frontier = append(frontier, b.splitToExact(r)...)
		}
	}
	b.rows = nil
	return frontier
}

// plan lists the frontier's pages in disk layout order. A planned page
// names its points by a range of b.perm rather than holding them.
func (b *builder) plan(frontier []*bnode) []planPage {
	out := make([]planPage, len(frontier))
	for i, n := range frontier {
		out[i] = planPage{lo: n.lo, hi: n.hi, bits: n.bits, mbr: n.mbr}
	}
	return out
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

// splitToExact recursively splits a node until every leaf fits at the
// 32-bit exact level (used by the no-quantization ablation), packing
// pages like the initial partitioning does.
func (b *builder) splitToExact(n *bnode) []*bnode {
	return b.splitToFixed(n, quantize.ExactBits)
}

// splitToFixed recursively splits a node until every leaf fits at the
// given quantization level, which every leaf is then stored at.
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

// planPage is one page of a computed layout — the unit of work of
// Plan.Build and of the incremental reoptimizer. Its points are
// perm[lo:hi] of the builder that planned it, and mbr is their MBR as
// the split tree computed it.
type planPage struct {
	lo, hi int
	bits   int
	mbr    vec.MBR
}

// chunkBytes bounds the page bytes Plan.Build encodes between two
// appends: a chunk is the next pages in layout order whose quantized and
// exact pages fit in it together, or one page that alone does not.
const chunkBytes = 1 << 20

// writePlanned writes p's pages into the tree's empty quantized and
// exact files and fills sn's directory with them, chunk by chunk. The
// calling goroutine sets the directory entries from the plan, copying
// every page's split-tree MBR into one slab for the tree; par.For
// workers encode a chunk's pages into two block-aligned buffers, reused
// for every chunk; and each buffer goes to its file in one append, the
// exact pages first as in writePage. Encoding a page allocates nothing,
// and what the tree keeps (its entries, grids and MBR slab) is allocated
// here, once per tree.
func (t *Tree) writePlanned(p *Plan, sn *snapshot) error {
	n, d, bs := len(p.pages), t.dim, t.blockSize
	cfg := t.sto.Config()
	sn.entries = make([]page.DirEntry, n)
	sn.grids = make([]quantize.Grid, n)
	sn.free = make([]bool, n)
	sn.entryAt = make([]int32, 0, n)
	slab := make([]float32, 2*d*n)
	var chunks []int // first page of every chunk, then n
	var qBytes, eBytes, maxQ, maxE, maxPts int
	for i, pp := range p.pages {
		box := slab[2*i*d : 2*(i+1)*d : 2*(i+1)*d]
		mbr := vec.MBR{Lo: box[:d:d], Hi: box[d:]}
		copy(mbr.Lo, pp.mbr.Lo)
		copy(mbr.Hi, pp.mbr.Hi)
		e := &sn.entries[i]
		e.Count, e.Bits, e.Base, e.MBR = uint32(pp.hi-pp.lo), uint8(pp.bits), uint32(pp.lo), mbr
		sn.grids[i] = quantize.NewGrid(e.MBR, pp.bits)
		if pp.bits < quantize.ExactBits {
			e.EBlocks = uint32(cfg.Blocks((pp.hi - pp.lo) * page.ExactEntrySize(d)))
		}
		eb := int(e.EBlocks) * bs
		if i == 0 || qBytes+eBytes+bs+eb > chunkBytes {
			chunks, qBytes, eBytes = append(chunks, i), 0, 0
		}
		qBytes, eBytes = qBytes+bs, eBytes+eb
		maxQ, maxE = max(maxQ, qBytes), max(maxE, eBytes)
		maxPts = max(maxPts, pp.hi-p.pages[chunks[len(chunks)-1]].lo)
	}
	chunks = append(chunks, n)

	qbuf, ebuf := make([]byte, maxQ), make([]byte, maxE)
	pts, ids := make([]vec.Point, maxPts), make([]uint32, maxPts) // aliasing p.pts
	for c := 0; c+1 < len(chunks); c++ {
		a, b := chunks[c], chunks[c+1]
		// Positions relative to the chunk until its appends return.
		eblocks := 0
		for i := a; i < b; i++ {
			e := &sn.entries[i]
			e.QPos = uint32(i - a)
			if e.EBlocks > 0 {
				e.EPos = uint32(eblocks)
				eblocks += int(e.EBlocks)
			}
		}
		base := p.pages[a].lo
		par.For(b-a, func() func(int) {
			return func(k int) {
				pp, e := p.pages[a+k], &sn.entries[a+k]
				pts, ids := pts[pp.lo-base:pp.hi-base], ids[pp.lo-base:pp.hi-base]
				for j, idx := range p.perm[pp.lo:pp.hi] {
					pts[j], ids[j] = p.pts[idx], uint32(idx)
				}
				encodePage(qbuf[k*bs:(k+1)*bs], ebuf[int(e.EPos)*bs:int(e.EPos+e.EBlocks)*bs], sn.grids[a+k], pts, ids)
			}
		})
		epos := 0
		if eblocks > 0 {
			var err error
			if epos, _, err = t.eFile.Append(ebuf[:eblocks*bs]); err != nil {
				return err
			}
		}
		qpos, _, err := t.qFile.Append(qbuf[:(b-a)*bs])
		if err != nil {
			return err
		}
		for i := a; i < b; i++ {
			e := &sn.entries[i]
			e.QPos += uint32(qpos)
			if e.EBlocks > 0 {
				e.EPos += uint32(epos)
			}
			sn.setOwner(int(e.QPos), i)
		}
	}
	return nil
}

// encodePage encodes one page of pts with their ids under grid: its
// quantized page into qbuf and, at a compressed level, its exact page
// into ebuf; a 32-bit page holds its ids itself and has no exact page.
// It is the one page encoder, shared by writePage and writePlanned.
func encodePage(qbuf, ebuf []byte, grid quantize.Grid, pts []vec.Point, ids []uint32) {
	if grid.Exact() {
		page.EncodeQPage(qbuf, grid, pts, ids)
		return
	}
	page.EncodeExact(ebuf, pts, ids)
	page.EncodeQPage(qbuf, grid, pts, nil)
}

// writePage appends one version of a page holding pts with their ids at
// level bits over the points' MBR: for a compressed level its exact
// page to ef, then its quantized page to qf. It sets e's count, level,
// MBR and positions, and returns the page's grid and whether the
// quantized page was written (e.QPos is unchanged when not). Write
// failures are recorded as the store's sticky error, which the caller
// checks before publishing anything that references the page.
func (t *Tree) writePage(qf, ef *store.File, e *page.DirEntry, pts []vec.Point, ids []uint32, bits int) (quantize.Grid, bool) {
	mbr := vec.MBROf(pts)
	grid := quantize.NewGrid(mbr, bits)
	e.Count, e.Bits, e.MBR = uint32(len(pts)), uint8(bits), mbr
	qbuf := make([]byte, t.qPageBytes())
	var ebuf []byte
	if !grid.Exact() {
		ebuf = make([]byte, len(pts)*page.ExactEntrySize(t.dim))
	}
	encodePage(qbuf, ebuf, grid, pts, ids)
	if ebuf != nil {
		if epos, eblocks, err := ef.Append(ebuf); err == nil {
			e.EPos, e.EBlocks = uint32(epos), uint32(eblocks)
		}
	} else {
		e.EPos, e.EBlocks = 0, 0
	}
	bpos, _, err := qf.Append(qbuf)
	if err != nil {
		return grid, false
	}
	e.QPos = uint32(bpos)
	return grid, true
}
