package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/kernel"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// RangeSearch returns all points within distance eps of q (under the
// tree's metric), ordered by increasing distance. Because the affected
// pages are known in advance from the directory, the second level is
// fetched with the optimal known-set schedule of paper Section 2 (Fig. 1):
// the round's cost-balance planner with access probabilities 0 and 1.
func (t *Tree) RangeSearch(s *store.Session, q vec.Point, eps float64) ([]Neighbor, error) {
	t.world.RLock()
	defer t.world.RUnlock()
	sc := scratchFor(s)
	return t.scan(s, sc, t.beginRange(s, sc, q, eps))
}

// WindowQuery returns all points inside the query window w. Dist fields of
// the results are 0.
func (t *Tree) WindowQuery(s *store.Session, w vec.MBR) ([]Neighbor, error) {
	t.world.RLock()
	defer t.world.RUnlock()
	sc := scratchFor(s)
	return t.scan(s, sc, t.beginWindow(s, sc, w))
}

// scan runs one range-style cursor to completion.
func (t *Tree) scan(s *store.Session, sc *queryScratch, c *scanCursor) ([]Neighbor, error) {
	if err := t.execute(sc, c); err != nil {
		return nil, err
	}
	return c.out, nil
}

// scanFilter is the query-specific part of a range-style scan. The two
// implementations live in the session scratch so a scan allocates no
// filter state.
type scanFilter interface {
	// pageHit selects directory entries whose page may hold results.
	pageHit(mbr vec.MBR) bool
	// preparePage builds the kernel tables for one compressed page.
	preparePage(sc *queryScratch, g quantize.Grid, count int)
	// pageHits classifies a whole prepared page's approximations in one
	// kernel batch call; hits[i] is true when point i needs its exact
	// geometry (for the id, and possibly the decision). The returned
	// slice is scratch, valid until the next call.
	pageHits(sc *queryScratch, codes []uint32, dim, count int) []bool
	// exactHit decides on the exact point, returning the result distance.
	exactHit(p vec.Point) (float64, bool)
}

// epsFilter implements the distance-range predicate via the kernel's
// table lookups with exact early-abandon: a point is discarded only when
// its accumulated lower bound provably exceeds eps (the threshold is the
// next float64 above eps, making prune ⇔ MINDIST > eps bit-exact).
type epsFilter struct {
	q   vec.Point
	eps float64
	met vec.Metric
	tb  *kernel.Tables
	lbT float64
}

func (f *epsFilter) pageHit(mbr vec.MBR) bool { return mbr.MinDist(f.q, f.met) <= f.eps }

func (f *epsFilter) preparePage(sc *queryScratch, g quantize.Grid, count int) {
	f.tb = sc.arena.Tables(g, f.q, f.met, count)
	f.lbT = kernel.SqThreshold(f.met, math.Nextafter(f.eps, math.Inf(1)))
}

func (f *epsFilter) pageHits(sc *queryScratch, codes []uint32, dim, count int) []bool {
	pb := &sc.bounds
	f.tb.MinDistBatch(codes, dim, count, f.lbT, pb)
	sc.hits = grow(sc.hits, count)
	hits := sc.hits
	for i := 0; i < count; i++ {
		hits[i] = !pb.Pruned[i] && pb.Lb[i] <= f.eps
	}
	return hits
}

func (f *epsFilter) exactHit(p vec.Point) (float64, bool) {
	d := f.met.Dist(f.q, p)
	return d, d <= f.eps
}

// windowFilter implements the window predicate via the kernel's
// per-dimension intersection table.
type windowFilter struct {
	w  vec.MBR
	wt *kernel.WindowTable
}

func (f *windowFilter) pageHit(mbr vec.MBR) bool { return mbr.Intersects(f.w) }

func (f *windowFilter) preparePage(sc *queryScratch, g quantize.Grid, count int) {
	f.wt = sc.arena.Window(g, f.w, count)
}

func (f *windowFilter) pageHits(sc *queryScratch, codes []uint32, dim, count int) []bool {
	sc.hits = f.wt.HitsBatch(codes, dim, count, sc.hits)
	return sc.hits
}

func (f *windowFilter) exactHit(p vec.Point) (float64, bool) { return 0, f.w.Contains(p) }

// scanCursor drives range and window queries: one directory scan selects
// every candidate page up front, all of them are wanted at once, and each
// delivered page appends its qualifying points. A round reads them with
// the known-set schedule; deliveries arrive in ascending position order
// within a round (the plan's spans are disjoint and ascending), and an
// unreadable page is answered from its exact shadow in its place, so a
// scan produces results in the same order damaged or clean. Range
// results are sorted by distance on completion.
type scanCursor struct {
	cursorBase
	t          *Tree
	sc         *queryScratch
	f          scanFilter
	sortByDist bool

	started bool
	pending []int // candidate positions, ascending (aliases sc.positions)
	out     []Neighbor
}

// beginRange resets the scratch's scan cursor for one range query over
// the current epoch. The caller holds world.RLock.
func (t *Tree) beginRange(s *store.Session, sc *queryScratch, q vec.Point, eps float64) *scanCursor {
	sc.eps = epsFilter{q: q, eps: eps, met: t.opt.Metric}
	tr := t.traceOf(s)
	if tr != nil {
		tr.SetLabel(fmt.Sprintf("range eps=%g", eps))
	}
	return t.beginScan(s, sc, tr, &sc.eps, true)
}

// beginWindow is beginRange for a window query.
func (t *Tree) beginWindow(s *store.Session, sc *queryScratch, w vec.MBR) *scanCursor {
	sc.win = windowFilter{w: w}
	tr := t.traceOf(s)
	tr.SetLabel("window")
	return t.beginScan(s, sc, tr, &sc.win, false)
}

func (t *Tree) beginScan(s *store.Session, sc *queryScratch, tr *Trace, f scanFilter, sortByDist bool) *scanCursor {
	c := &sc.scan
	*c = scanCursor{
		cursorBase: cursorBase{s: s, tr: tr, sn: t.load()},
		t:          t, sc: sc, f: f, sortByDist: sortByDist,
	}
	clear(sc.delivered)
	return c
}

func (c *scanCursor) step(buf []int) []int {
	if !c.started {
		c.started = true
		if err := c.scanDirectory(); err != nil {
			c.finish(err)
			return buf
		}
	}
	if len(c.sc.delivered) < len(c.pending) {
		for _, pos := range c.pending {
			if _, ok := c.sc.delivered[pos]; !ok {
				buf = append(buf, pos)
			}
		}
		return buf
	}
	if c.sortByDist {
		out := c.out
		sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	}
	c.finish(nil)
	return buf
}

func (c *scanCursor) pivot() int { return -1 }

func (c *scanCursor) needs(pos int) bool {
	_, cand := c.sc.posEntry[pos]
	_, dup := c.sc.delivered[pos]
	return cand && !dup
}

// accessProb is 1 for every undelivered candidate page: the scan's page
// set is known, so every such page is certain.
func (c *scanCursor) accessProb(pos int) float64 {
	if c.needs(pos) {
		return 1
	}
	return 0
}

func (c *scanCursor) deliver(pg *fetchedPage) {
	c.tr.AddPages(1)
	if !c.needs(pg.pos) {
		c.tr.AddPruned(1) // over-read gap page (cheaper than a seek)
		return
	}
	c.sc.delivered[pg.pos] = struct{}{}
	if pg.bits == quantize.ExactBits {
		c.exactPage(pg.payload, pg.count)
	} else if err := c.codesPage(c.sc.posEntry[pg.pos], pg.count, pg.codes()); err != nil {
		c.finish(err)
	}
}

// deliverDegraded serves an unreadable candidate page from its exact
// shadow right away, in position order with the pages read around it.
func (c *scanCursor) deliverDegraded(pos int) {
	if !c.needs(pos) {
		return
	}
	c.sc.delivered[pos] = struct{}{}
	if err := c.shadowPage(c.sc.posEntry[pos]); err != nil {
		c.finish(err)
	}
}

// scanDirectory runs the level-1 directory scan against the pinned
// snapshot: the filter's pageHit selects the candidate pages, whose
// sorted positions become the wants (posEntry maps position → entry).
func (c *scanCursor) scanDirectory() error {
	t, sn, sc := c.t, c.sn, c.sc
	if err := t.readDirectory(c.s, sn); err != nil {
		return err
	}
	sc.pts.Reset()
	c.pending = sc.positions[:0]
	clear(sc.posEntry)
	for i, e := range sn.entries {
		if sn.free[i] || !c.f.pageHit(e.MBR) {
			continue
		}
		c.pending = append(c.pending, int(e.QPos))
		sc.posEntry[int(e.QPos)] = i
	}
	sc.positions = c.pending
	sort.Ints(c.pending)
	return nil
}

// shadowPage answers one page entirely from its exact (level-3) shadow —
// every point of the page is decided on exact geometry, so results match
// a clean run bit for bit; only the cost degrades. A quarantined
// exact-mode page has no shadow and fails with ErrUnrecoverable.
func (c *scanCursor) shadowPage(entry int) error {
	t, e := c.t, c.sn.entries[entry]
	if int(e.Bits) == quantize.ExactBits {
		return unrecoverablePage(int(e.QPos), entry)
	}
	entrySize := page.ExactEntrySize(t.dim)
	raw, rel, err := c.s.ReadRange(t.eFile, int(e.EPos)*t.sto.Config().BlockSize, int(e.Count)*entrySize)
	if err != nil {
		return err
	}
	metricDegradedReads.Inc()
	c.tr.AddDegraded(1)
	c.tr.AddRefinement(int(e.Count))
	c.s.ChargeDistCPU(t.eFile, t.dim, int(e.Count))
	c.appendHits(c.sc.pts.DecodeExact(raw[rel:], int(e.Count), t.dim))
	return nil
}

// exactPage decides an exact-mode (32-bit) quantized page: every point
// carries its full coordinates, so the filter's exact predicate applies
// directly.
func (c *scanCursor) exactPage(payload []byte, count int) {
	pts, ids := c.sc.pts.DecodeQPage(payload, count, c.t.dim)
	c.s.ChargeDistCPU(c.t.qFile, c.t.dim, len(pts))
	c.appendHits(pts, ids)
}

// appendHits appends every point the filter's exact predicate accepts,
// copied out of the scratch arena.
func (c *scanCursor) appendHits(pts []vec.Point, ids []uint32) {
	for i, p := range pts {
		if d, ok := c.f.exactHit(p); ok {
			c.out = append(c.out, Neighbor{ID: ids[i], Dist: d, Point: p.Clone()})
		}
	}
}

// codesPage filters one compressed page's bulk-unpacked codes and
// refines the surviving candidates against the exact level.
func (c *scanCursor) codesPage(entry, count int, codes []uint32) error {
	t, sc, f := c.t, c.sc, c.f
	f.preparePage(sc, c.sn.grids[entry], count)
	c.s.ChargeApproxCPU(t.qFile, t.dim, count)
	hits := f.pageHits(sc, codes, t.dim, count)
	need := sc.need[:0]
	for i := 0; i < count; i++ {
		if hits[i] {
			need = append(need, i)
		}
	}
	sc.need = need
	c.tr.AddCandidates(len(need))
	if len(need) == 0 {
		return nil
	}
	// Level 3: candidates of one page are contiguous in the exact file;
	// read the covering range in a single operation and bulk-decode the
	// covered span into the point arena.
	e := c.sn.entries[entry]
	entrySize := page.ExactEntrySize(t.dim)
	base := int(e.EPos) * t.sto.Config().BlockSize
	lo := base + need[0]*entrySize
	hi := base + (need[len(need)-1]+1)*entrySize
	raw, rel, err := c.s.ReadRange(t.eFile, lo, hi-lo)
	if err != nil {
		return err
	}
	c.tr.AddRefinement(len(need))
	c.s.ChargeDistCPU(t.eFile, t.dim, len(need))
	pts, ids := sc.pts.DecodeExact(raw[rel:], need[len(need)-1]-need[0]+1, t.dim)
	for _, i := range need {
		j := i - need[0]
		if d, ok := f.exactHit(pts[j]); ok {
			c.out = append(c.out, Neighbor{ID: ids[j], Dist: d, Point: pts[j].Clone()})
		}
	}
	return nil
}
