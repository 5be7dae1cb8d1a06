package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pagesched"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

var _ index.ApproxSearcher = (*Tree)(nil)

var (
	metricApproxStops   = obs.Default().Counter("core.approx.terminations")
	metricApproxSkipped = obs.Default().Counter("core.approx.skipped_pages")
)

// Neighbor is one search result.
type Neighbor = vec.Neighbor

// Trace records the physical work of one query: per-level simulated
// cost, the scheduler's batch decisions, and the candidate/refinement
// funnel. It is the obs.QueryTrace of the observability layer: attach one
// to the session with SetTrace and every query entry point records its
// plan events into it, sets its simulated costs and labels it, while the
// session feeds it the per-level seek/transfer/CPU charges. All methods
// are nil-safe — a nil *Trace records nothing.
type Trace = obs.QueryTrace

// KNN returns the k nearest neighbors of q ordered by increasing
// distance. On a read failure it returns the session's (sticky) error;
// the partial result must not be trusted.
func (t *Tree) KNN(s *store.Session, q vec.Point, k int) ([]Neighbor, error) {
	return t.knn(s, q, k, 0, nil)
}

// KNNApprox is KNN at a recall target (paper Sec. 2.2 turned into a
// stopping rule; see index.ApproxSearcher): the best-first search stops
// fetching quantized pages once the estimated probability that any
// still-unfetched page improves the current top-k drops below
// ε = 1 − minRecall. Candidates already admitted from fetched pages are
// still refined against exact geometry, so every returned neighbor is a
// genuine indexed point at its exact distance — an approximate answer
// can substitute farther neighbors for missed ones, never fabricate
// them. minRecall = 0 (exact) or 1 (ε = 0) is bit-identical to KNN.
func (t *Tree) KNNApprox(s *store.Session, q vec.Point, k int, minRecall float64) ([]Neighbor, error) {
	return t.knn(s, q, k, minRecall, nil)
}

// KNNInto is KNN reusing the caller's result buffer: dst (grown as
// needed) receives the neighbors and is returned; the per-neighbor Point
// backing arrays of dst are reused when large enough. A warmed
// (dst, session) pair makes repeated queries allocation-free. The
// returned slice and its points are owned by the caller until the next
// KNNInto with the same dst.
func (t *Tree) KNNInto(s *store.Session, q vec.Point, k int, dst []Neighbor) ([]Neighbor, error) {
	return t.knn(s, q, k, 0, dst)
}

// knn runs the session's k-NN cursor to completion under one pinned
// epoch and pops its result into dst (see resultsInto).
func (t *Tree) knn(s *store.Session, q vec.Point, k int, minRecall float64, dst []Neighbor) ([]Neighbor, error) {
	sn := t.pin()
	defer sn.unpin()
	sc := scratchFor(s)
	c := t.beginKNN(s, sc, sn, q, k, minRecall)
	if err := t.execute(sc, c); err != nil {
		return nil, err
	}
	if c.st == nil {
		return nil, s.Err()
	}
	return c.st.resultsInto(dst), nil
}

// traceOf returns the session's trace (nil when there is none) with the
// store's simulated costs set, so it can render times.
func (t *Tree) traceOf(s *store.Session) *Trace {
	tr := s.Trace()
	if tr != nil {
		cfg := t.sto.Config()
		tr.SetCosts(cfg.Seek, cfg.Xfer)
	}
	return tr
}

// knnCursor drives the nnSearch state machine one page fetch at a time:
// start, then repeatedly advance to the next unpruned pending page and
// want it. A round reads that want with the Sec. 2.1 batch around it as
// the pivot (or the page alone when OptimizedIO is off). Pages delivered
// early (over-read for the batch) only tighten the search's bounds
// sooner; processing a page is order-independent for the final result
// set (candidates enter the same priority list, prune radii only shrink),
// so the returned neighbors are identical either way.
type knnCursor struct {
	cursorBase
	st      *nnSearch // nil for the empty query
	pending int32     // entry awaiting its page; -1 = none
	started bool
}

// beginKNN resets the scratch's k-NN cursor for one query over the
// pinned epoch sn.
func (t *Tree) beginKNN(s *store.Session, sc *queryScratch, sn *snapshot, q vec.Point, k int, minRecall float64) *knnCursor {
	tr := t.traceOf(s)
	if tr != nil {
		tr.SetLabel(fmt.Sprintf("knn k=%d", k))
	}
	c := &sc.knn
	*c = knnCursor{cursorBase: cursorBase{s: s, tr: tr, sn: sn}, pending: -1}
	c.st = sc.beginSearch(t, sn, s, q, k, tr, minRecall)
	if k <= 0 || sn.n == 0 {
		c.st, c.done = nil, true
	}
	return c
}

func (c *knnCursor) step(buf []int) []int {
	st := c.st
	if st.err != nil {
		c.finish(st.err)
		return buf
	}
	if !c.started {
		c.started = true
		if !st.start() {
			c.finish(st.err)
			return buf
		}
	}
	// The pivot stays wanted until a round delivers it.
	if c.pending < 0 || st.processed[c.pending] {
		entry, ok := st.advance()
		if !ok {
			c.finish(st.err)
			return buf
		}
		c.pending = int32(entry)
	}
	return append(buf, c.pivot())
}

func (c *knnCursor) pivot() int { return int(c.st.sn.entries[c.pending].QPos) }

func (c *knnCursor) needs(pos int) bool {
	st := c.st
	if st.err != nil {
		return false
	}
	e := st.sn.entryIndex(pos)
	return e >= 0 && !st.processed[e] && !st.sn.free[e]
}

func (c *knnCursor) accessProb(pos int) float64 {
	if c.st.err != nil {
		return 0
	}
	return c.st.accessProb(pos)
}

// deliver accounts every transferred page, irrelevant ones as pruned,
// and filters a relevant one.
func (c *knnCursor) deliver(pg *fetchedPage) {
	st := c.st
	if st.err != nil {
		return
	}
	st.tr.AddPages(1)
	if !c.needs(pg.pos) {
		st.tr.AddPruned(1)
		return
	}
	e := st.sn.entryIndex(pg.pos)
	st.processed[e] = true
	if st.minD[e] >= st.prune() {
		st.tr.AddPruned(1) // transferred but certainly irrelevant
		return
	}
	if pg.bits == quantize.ExactBits {
		st.processExact(pg.payload, pg.count)
		return
	}
	st.processCodes(e, pg.count, pg.codes())
}

// deliverDegraded serves only the pivot page from its exact shadow: the
// search must not touch the exact shadow of pages it still might prune,
// and an exact-mode page it would never fetch must not fail the query.
func (c *knnCursor) deliverDegraded(pos int) {
	if c.pending < 0 || c.st.sn.entryIndex(pos) != int(c.pending) || !c.needs(pos) {
		return
	}
	c.st.degradedExact(int(c.pending))
}

// pqItem is an entry of the search priority list (paper Sec. 3.2): either
// a whole quantized page or the box approximation of a single point.
type pqItem struct {
	dist  float64
	entry int32 // directory entry index
	pt    int32 // point index within the page; -1 for a page item
}

type nnSearch struct {
	t   *Tree
	sn  *snapshot // pinned directory epoch; all state below indexes it
	s   *store.Session
	q   vec.Point
	k   int // result bound
	tr  *Trace
	sc  *queryScratch // owning scratch (arenas, sorter, prob buffers)
	err error         // first read failure; aborts the search

	minD      []float64 // MINDIST per directory entry
	processed []bool
	sorted    []int32 // live entries ordered by MINDIST (for probabilities)

	heap []pqItem // min-heap on dist

	// Approximate execution state (zero for exact queries): the stopping
	// threshold and the stopping rule's state.
	eps       float64        // ε = 1 − minRecall; the rule never fires at ε ≤ 0
	apStopped bool           // ε rule fired: no more quantized page fetches or fresh exact-page loads
	wSum      []float64      // per entry: Σ (ub − lb) over admitted candidates
	wCnt      []int32        // per entry: admitted candidate count
	exactSkip map[int32]bool // exact pages the ε stop left unloaded

	// res holds the k best refined neighbors; its bound is the exact
	// k-th distance found so far.
	res vec.KNearest
	// ub holds the k smallest upper bounds seen: at least k points lie
	// within its bound, so anything farther can be discarded (VA-file
	// style pruning, implied by the paper's b-sphere argument).
	ub vec.KNearest

	regionBuf []pagesched.Region

	// exactCache holds decoded third-level pages, keyed by entry index.
	// The third level is organized in variable-size pages, one per
	// partition (paper Fig. 3): the first refinement from a partition
	// loads its whole exact page, later refinements are free.
	exactCache map[int32]exactPage
}

type exactPage struct {
	pts []vec.Point
	ids []uint32
}

// prune is the search radius: nothing farther than the exact k-th
// distance or the k-th smallest upper bound can enter the result.
func (st *nnSearch) prune() float64 { return math.Min(st.res.Bound(), st.ub.Bound()) }

// readDirectory is level 1 of every query: a sequential scan of the flat
// directory (the extent the pinned epoch was published with — the file
// may have grown since), charged as one approximation test per entry.
func (t *Tree) readDirectory(s *store.Session, sn *snapshot) error {
	if sn.dirBlocks > 0 {
		if _, err := s.Read(t.dirFile, 0, sn.dirBlocks); err != nil {
			return err
		}
	}
	s.ChargeApproxCPU(t.dirFile, t.dim, len(sn.entries))
	return nil
}

// start runs the level-1 directory scan and seeds the priority list
// (paper Sec. 3.2). It reports whether the search can proceed; on false,
// st.err holds the reason (or the search is trivially complete).
func (st *nnSearch) start() bool {
	t := st.t
	sn := st.sn
	met := t.opt.Metric
	if st.err = t.readDirectory(st.s, sn); st.err != nil {
		return false
	}
	for i, e := range sn.entries {
		if sn.free[i] {
			st.processed[i] = true
			continue
		}
		st.minD[i] = e.MBR.MinDist(st.q, met)
		st.pushItem(pqItem{dist: st.minD[i], entry: int32(i), pt: -1})
		st.sorted = append(st.sorted, int32(i))
	}
	st.sc.sorter = entrySorter{minD: st.minD, idx: st.sorted}
	sort.Sort(&st.sc.sorter)
	return true
}

// advance pops the priority list to the next unprocessed page entry,
// refining point items inline on the way. ok=false means the search is
// complete: either the list ran dry, nothing left can improve the
// result, or a refinement failed (st.err).
func (st *nnSearch) advance() (entry int, ok bool) {
	for len(st.heap) > 0 && st.err == nil {
		it := st.popItem()
		if it.dist >= st.res.Bound() {
			break // nothing left can improve the result set
		}
		if it.dist > st.ub.Bound() {
			continue // k closer points certainly exist
		}
		if it.pt >= 0 {
			if st.approxSkipRefine(it) {
				continue // would load a fresh exact page; result is good enough
			}
			st.refine(it)
			continue
		}
		if st.processed[it.entry] {
			continue
		}
		if st.approxStop(int(it.entry)) {
			continue // page skipped; keep draining candidate refinements
		}
		return int(it.entry), true
	}
	return 0, false
}

// approxSkipRefine decides, immediately before a popped candidate would
// be refined, whether the ε rule terminates fresh exact-page loads: the
// check runs only at level-3 fetch boundaries (candidates whose
// partition is already cached refine for free, stopped or not), mirrors
// the page-fetch stopping rule — the remaining-improvement estimate
// counts unfetched pages and pending candidates alike — and never fires
// before k refined results exist, so an approximate answer always holds
// k genuine neighbors.
func (st *nnSearch) approxSkipRefine(it pqItem) bool {
	if st.eps <= 0 || st.res.Len() < st.k {
		return false
	}
	if _, cached := st.exactCache[it.entry]; cached {
		return false
	}
	if !st.apStopped {
		p := st.remainingImprove(st.eps, &it)
		if p >= st.eps {
			return false
		}
		st.terminateApprox(p)
	}
	st.skipExact(it.entry)
	return true
}

// skipExact charges one skipped page the first time a fresh exact page
// is left unloaded by the ε termination (later candidates from the same
// partition are part of the same skipped page).
func (st *nnSearch) skipExact(entry int32) {
	if st.exactSkip[entry] {
		return
	}
	if st.exactSkip == nil {
		st.exactSkip = make(map[int32]bool)
	}
	st.exactSkip[entry] = true
	st.tr.AddSkipped(1)
	metricApproxSkipped.Inc()
}

// approxStop decides, immediately before the popped page entry would be
// fetched, whether the ε rule terminates page fetching: whether the
// cumulative probability that any still-unfetched page improves the
// current top-k — 1 − Π(1 − p_i) over the remaining unprocessed,
// unpruned pages, p_i from the paper's uniformity-within-MBR model —
// dropped below ε = 1 − minRecall. Once stopped, every later-popped page
// is skipped the same way while point candidates from already-fetched
// pages keep refining, so the answer stays exact for everything the
// filter level actually saw. Exact queries (ε = 0) return false without
// touching any state.
func (st *nnSearch) approxStop(entry int) bool {
	if st.eps <= 0 {
		return false
	}
	if st.apStopped {
		st.skipPage(entry)
		return true
	}
	if p := st.remainingImprove(st.eps, nil); p < st.eps {
		st.terminateApprox(p)
		st.skipPage(entry)
		return true
	}
	return false
}

// remainingImprove estimates the per-slot probability that any
// still-unfetched page improves the current top-k: the
// popped-but-unprocessed entry and every other unprocessed entry with
// MINDIST below the prune radius compete as regions of the cost model's
// improvement estimator, normalized over the k result slots (see
// pagesched.ImproveProbability — terminating below ε then bounds the
// expected fraction of changed slots, hence 1 − expected recall, by ε).
// cut is the caller's decision threshold — the scan aborts early once
// the probability provably reaches it. With fewer than k results the
// radius is unbounded and the estimate saturates at 1 (never terminate
// early).
func (st *nnSearch) remainingImprove(cut float64, extra *pqItem) float64 {
	r := st.prune()
	if math.IsInf(r, 1) {
		return 1
	}
	// Unfetched pages compete as uniform regions of the cost model.
	st.regionBuf = st.regionBuf[:0]
	for _, e := range st.sorted {
		if st.minD[e] >= r {
			break
		}
		if st.processed[e] {
			continue
		}
		st.regionBuf = append(st.regionBuf, pagesched.Region{
			MBR:     st.sn.entries[e].MBR,
			Count:   int(st.sn.entries[e].Count),
			MinDist: st.minD[e],
		})
	}
	k := float64(st.k)
	pPages := st.sc.prob.ImproveProbability(st.q, st.t.opt.Metric, r, st.regionBuf, k, cut)
	if pPages >= cut {
		return pPages // pages alone forbid termination; skip the heap scan
	}
	// Pending candidates — filter-admitted points waiting, unrefined, in
	// the priority list — are not uniform MBR mass: the filter step already
	// located them near the query. Each competes through its own lower
	// bound instead: its true distance is modeled uniform on [lb, lb + w̄],
	// w̄ the source entry's mean admitted bound width, so
	// P(improve) = clamp((r − lb)/w̄). Folding their misses into the page
	// product keeps the per-slot calibration of ImproveProbability.
	miss := math.Pow(1-pPages, k)
	missCut := 0.0
	if cut < 1 {
		missCut = math.Pow(1-cut, k)
	}
	for i := range st.heap {
		miss *= 1 - st.candImprove(&st.heap[i], r)
		if miss <= missCut || miss < pagesched.ProbFloor {
			break
		}
	}
	if extra != nil {
		miss *= 1 - st.candImprove(extra, r)
	}
	if miss < pagesched.ProbFloor {
		miss = pagesched.ProbFloor
	}
	return 1 - math.Pow(miss, 1/k)
}

// candImprove is the pending-candidate improvement probability of one
// priority-list point item (0 for page items).
func (st *nnSearch) candImprove(it *pqItem, r float64) float64 {
	if it.pt < 0 || it.dist >= r {
		return 0
	}
	if st.wCnt[it.entry] == 0 {
		return 1 // no width statistic; assume the worst
	}
	w := st.wSum[it.entry] / float64(st.wCnt[it.entry])
	if w <= 0 {
		return 1 // exact bounds: lb < r is a certain improvement
	}
	return math.Min((r-it.dist)/w, 1)
}

// terminateApprox records the stopping decision; callers separately skip
// whatever page or refinement triggered it.
func (st *nnSearch) terminateApprox(p float64) {
	st.apStopped = true
	metricApproxStops.Inc()
	st.tr.NoteTermination(p)
}

// skipPage marks one pending page as left unfetched by the approximate
// termination.
func (st *nnSearch) skipPage(entry int) {
	st.processed[entry] = true
	st.tr.AddSkipped(1)
	metricApproxSkipped.Inc()
}

// degradedExact answers one page whose quantized representation is
// unreadable from its exact (level-3) page: every point of the page is
// resolved with an exact distance, which is strictly more information
// than the filter step would have produced, so the k-NN result stays
// bit-identical to a clean run — only the cost degrades. Exact-mode
// (32-bit) pages have no level-3 shadow; their corruption is a typed,
// unrecoverable error.
func (st *nnSearch) degradedExact(entry int) {
	t := st.t
	e := st.sn.entries[entry]
	st.processed[entry] = true
	if int(e.Bits) == quantize.ExactBits {
		st.err = unrecoverablePage(int(e.QPos), entry)
		return
	}
	if st.minD[entry] >= st.prune() {
		st.tr.AddPruned(1)
		return // the page cannot contribute; no need to touch level 3
	}
	ep, err := st.loadExact(int32(entry))
	if err != nil {
		st.err = err
		return
	}
	metricDegradedReads.Inc()
	st.tr.AddDegraded(1)
	st.s.ChargeDistCPU(st.sn.gen.e, t.dim, len(ep.pts))
	met := t.opt.Metric
	for i, p := range ep.pts {
		d := met.Dist(st.q, p)
		st.ub.Offer(Neighbor{Dist: d})
		st.res.Offer(Neighbor{ID: ep.ids[i], Dist: d, Point: p})
	}
}

// accessProb estimates the probability that the pending page at file
// position pos must be loaded (Sec. 2.2): the probability that no
// higher-priority page contains a point inside the page's b-sphere.
func (st *nnSearch) accessProb(pos int) float64 {
	sn := st.sn
	entry := sn.entryIndex(pos)
	if entry < 0 || st.processed[entry] || sn.free[entry] {
		return 0
	}
	r := st.minD[entry]
	if r >= st.prune() {
		return 0 // page is already pruned
	}
	st.regionBuf = st.regionBuf[:0]
	for _, e := range st.sorted {
		if st.minD[e] >= r {
			break
		}
		if st.processed[e] || int(e) == entry {
			continue
		}
		st.regionBuf = append(st.regionBuf, pagesched.Region{
			MBR:     sn.entries[e].MBR,
			Count:   int(sn.entries[e].Count),
			MinDist: st.minD[e],
		})
	}
	return st.sc.prob.AccessProbability(st.q, st.t.opt.Metric, r, st.regionBuf)
}

// processExact consumes one exact-mode (32-bit) page: final distances,
// no refinement needed.
func (st *nnSearch) processExact(payload []byte, count int) {
	t := st.t
	met := t.opt.Metric
	pts, ids := st.sc.pts.DecodeQPage(payload, count, t.dim)
	st.s.ChargeDistCPU(st.sn.gen.q, t.dim, len(pts))
	for i, p := range pts {
		d := met.Dist(st.q, p)
		st.ub.Offer(Neighbor{Dist: d})
		st.res.Offer(Neighbor{ID: ids[i], Dist: d, Point: p})
	}
}

// processCodes filters one compressed page's bulk-unpacked codes,
// pushing candidate approximations onto the priority list.
//
// This is the CPU hot loop of the filter step. Per-point bounds come
// from the kernel's per-query lookup tables, and points whose bounds
// provably clear both the prune radius and the current kth upper bound
// are abandoned mid-accumulation (every decision is bit-identical to the
// naive Grid math; see internal/kernel).
func (st *nnSearch) processCodes(entry, count int, codes []uint32) {
	t := st.t
	met := t.opt.Metric
	tb := st.sc.arena.Tables(st.sn.grids[entry], st.q, met, count)
	st.s.ChargeApproxCPU(st.sn.gen.q, t.dim, count)
	cand := 0
	// prune/bound only shrink while scanning the page, so thresholds
	// cached here stay safe: a point abandoned against a stale (larger)
	// threshold would be abandoned against the current one too. They are
	// refreshed whenever an offer actually changes the upper-bound heap.
	prune := st.prune()
	bound := st.ub.Bound()
	lbT := kernel.SqThreshold(met, prune)
	ubT := kernel.SqThreshold(met, bound)
	for i := 0; i < count; i++ {
		cs := codes[i*t.dim : (i+1)*t.dim]
		lb, ubD, pruned := tb.BoundsPruned(cs, lbT, ubT)
		if pruned {
			// lb ≥ prune (no candidate) and ubD ≥ bound (no-op offer).
			continue
		}
		if st.ub.Offer(Neighbor{Dist: ubD}) {
			prune = st.prune()
			bound = st.ub.Bound()
			lbT = kernel.SqThreshold(met, prune)
			ubT = kernel.SqThreshold(met, bound)
		}
		if lb < prune {
			cand++
			st.wSum[entry] += ubD - lb
			st.wCnt[entry]++
			st.pushItem(pqItem{dist: lb, entry: int32(entry), pt: int32(i)})
		}
	}
	st.tr.AddCandidates(cand)
}

// refine resolves one point approximation against the exact geometry: the
// first refinement from a partition loads that partition's variable-size
// exact page (one level-3 access); further candidates from the same
// partition are served from the per-query cache.
func (st *nnSearch) refine(it pqItem) {
	t := st.t
	ep, err := st.loadExact(it.entry)
	if err != nil {
		st.err = err
		return
	}
	p, id := ep.pts[it.pt], ep.ids[it.pt]
	st.s.ChargeDistCPU(st.sn.gen.e, t.dim, 1)
	st.res.Offer(Neighbor{ID: id, Dist: t.opt.Metric.Dist(st.q, p), Point: p})
}

// loadExact returns (loading and caching on first use) the decoded
// exact page of a directory entry.
func (st *nnSearch) loadExact(entry int32) (exactPage, error) {
	if ep, ok := st.exactCache[entry]; ok {
		return ep, nil
	}
	t := st.t
	count := int(st.sn.entries[entry].Count)
	raw, err := t.readExact(st.s, st.sn, int(entry), 0, count)
	if err != nil {
		return exactPage{}, err
	}
	st.tr.AddRefinement(count)
	pts, ids := st.sc.pts.DecodeExact(raw, count, t.dim)
	ep := exactPage{pts: pts, ids: ids}
	if st.exactCache == nil {
		st.exactCache = make(map[int32]exactPage)
	}
	st.exactCache[entry] = ep
	return ep, nil
}

// resultsInto pops the result heap into dst, reusing its backing array
// and, where capacities allow, the per-neighbor Point backing arrays.
// The result points may alias the scratch point arena, so they are
// copied; a nil dst yields a fresh, caller-owned slice (nil when empty).
func (st *nnSearch) resultsInto(dst []Neighbor) []Neighbor {
	n := st.res.Len()
	if cap(dst) < n {
		grown := make([]Neighbor, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:n]
	for i := n - 1; i >= 0; i-- {
		nb := st.res.Pop()
		p := dst[i].Point
		if cap(p) < len(nb.Point) {
			p = make(vec.Point, len(nb.Point))
		}
		p = p[:len(nb.Point)]
		copy(p, nb.Point)
		nb.Point = p
		dst[i] = nb
	}
	return dst
}

// --- small specialized heaps (avoid container/heap interface boxing in
// the inner search loop) ---

func (st *nnSearch) pushItem(it pqItem) {
	st.heap = append(st.heap, it)
	i := len(st.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if st.heap[p].dist <= st.heap[i].dist {
			break
		}
		st.heap[p], st.heap[i] = st.heap[i], st.heap[p]
		i = p
	}
}

func (st *nnSearch) popItem() pqItem {
	h := st.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	st.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && st.heap[l].dist < st.heap[m].dist {
			m = l
		}
		if r < last && st.heap[r].dist < st.heap[m].dist {
			m = r
		}
		if m == i {
			break
		}
		st.heap[i], st.heap[m] = st.heap[m], st.heap[i]
		i = m
	}
	return top
}
