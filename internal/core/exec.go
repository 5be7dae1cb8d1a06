package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/pagesched"
	"repro/internal/quantize"
	"repro/internal/store"
)

// The tree has one query executor: the fetch round. Every query kind is a
// resumable cursor (knnCursor, scanCursor) that suspends at its
// quantized-page fetch boundary, and round advances any set of cursors
// by one fetch. A direct query — KNN, KNNApprox, KNNInto, RangeSearch,
// WindowQuery — is a loop of rounds over its one cursor (execute); the
// engine's scan-sharing coordinator runs rounds over up to its worker
// count of cursors (SharedScan.Round, shared.go). Planning, leader
// choice, damage handling and accounting are one code path for both.

// cursor is one query suspended at its quantized-page fetch boundary.
type cursor interface {
	index.Cursor
	base() *cursorBase
	// step advances the query to its next fetch boundary and appends the
	// page positions it needs to buf. It appends nothing exactly when the
	// query ended (base().done).
	step(buf []int) []int
	// needs reports whether the page at pos is still pending for the
	// query; a read's batch decision counts these.
	needs(pos int) bool
	// accessProb estimates the probability that the query will need the
	// page at pos later in its run (paper Sec. 2.2): 0 for pages it has
	// consumed, pruned or will never touch, 1 for pages it certainly reads.
	accessProb(pos int) float64
	// pivot is the page the query's best-first order fetches next, the
	// pivot of the batch it leads; -1 for a known-set scan.
	pivot() int
	// deliver offers one fetched page. shared marks a page another query's
	// session paid for, which the query records as a zero-cost shared
	// read; the leader of the read gets shared=false and accounts the
	// transfer. Reports whether the query consumed the page.
	deliver(pg *sharedPage, shared bool) bool
	// deliverDegraded reports that the page at pos is unreadable
	// (quarantined or corrupt). A query that is waiting for exactly this
	// page answers it from the exact level or fails typed; every other
	// query ignores the report and re-wants the page in a later round if
	// it still needs it. Reports whether the query acted.
	deliverDegraded(pos int) bool
}

// cursorBase is the state a round reads from every cursor: the session it
// charges, its trace, the epoch it pinned and how it ended.
type cursorBase struct {
	s    *store.Session
	tr   *Trace
	sn   *snapshot
	gen  uint64 // reoptGen when the cursor began
	done bool
	err  error
}

func (b *cursorBase) base() *cursorBase { return b }

// Done reports whether the query ended.
func (b *cursorBase) Done() bool { return b.done }

// finish ends the query; the first error wins.
func (b *cursorBase) finish(err error) {
	b.done = true
	if b.err == nil {
		b.err = err
	}
}

// want is one page of a round's union and the live cursor that owns it:
// the first cursor, in round order, that wanted it.
type want struct {
	pos   int
	owner int // index into roundScratch.live
}

// roundScratch is the reusable state of a round driver: the session
// scratch of a direct query, or a SharedScan handle. It is
// single-goroutine state, and a warmed one makes rounds allocation-free.
type roundScratch struct {
	one    [1]cursor // execute's cursor set
	live   []cursor  // cursors that want pages this round
	buf    []int     // one cursor's wants
	union  []want    // wanted pages, ascending, one entry per page
	wants  []int     // union positions, for the planner
	spans  []pagesched.PageSpan
	sched  pagesched.Scheduler
	page   sharedPage
	leader cursor // leader of the span being read

	pages, serves int // pages read and consumed in the last round
}

func (rs *roundScratch) init() {
	rs.sched.Prob = rs.prob
}

// execute runs one query on its own: rounds over its one cursor until it
// ends. The caller holds world.RLock for the whole query, so
// the query sees one epoch and never ends with index.ErrStaleScan.
func (t *Tree) execute(sc *queryScratch, c cursor) error {
	rs := &sc.round
	rs.one[0] = c
	for t.round(rs, rs.one[:]) {
	}
	rs.one[0] = nil
	return c.base().err
}

// round advances the cursors cs by one fetch round. The caller holds
// world.RLock.
//
//  1. Every cursor that has not ended steps to its fetch boundary. One
//     whose epoch a reorganization invalidated ends with
//     index.ErrStaleScan, one whose context is done with
//     store.ErrCanceled.
//  2. The union of the wanted pages is planned with BatchAll over the
//     cursors' combined access probabilities (paper Sec. 2.1; for a
//     known-set scan the probabilities are 0 and 1, which is Fig. 1).
//     With OptimizedIO off every want is read alone.
//  3. Each span is read once through its leader: the first cursor owning
//     a want inside it that has not ended and whose context is not done.
//  4. Every page is offered to every live cursor, the leader first (it
//     accounts the read); every unreadable page is reported to all of
//     them.
//
// A panic in one cursor's step or delivery ends only that cursor, with
// index.ErrPanicked. round reports whether any cursor wanted pages.
func (t *Tree) round(rs *roundScratch, cs []cursor) bool {
	rs.pages, rs.serves = 0, 0
	rs.live, rs.union = rs.live[:0], rs.union[:0]
	gen := t.reoptGen.Load()
	for _, c := range cs {
		b := c.base()
		if b.done {
			continue
		}
		if b.gen != gen {
			b.finish(index.ErrStaleScan)
			continue
		}
		if ctx := b.s.Context(); ctx != nil && ctx.Err() != nil {
			b.finish(fmt.Errorf("%w: %w", store.ErrCanceled, ctx.Err()))
			continue
		}
		rs.buf = step(c, rs.buf[:0])
		if len(rs.buf) == 0 {
			continue // ended
		}
		for _, pos := range rs.buf {
			rs.union = append(rs.union, want{pos: pos, owner: len(rs.live)})
		}
		rs.live = append(rs.live, c)
	}
	if len(rs.live) == 0 {
		return false
	}
	rs.plan(t)
	for _, span := range rs.spans {
		rs.read(t, span)
	}
	rs.leader = nil
	return true
}

// plan deduplicates the round's wants, keeping each page's first owner,
// and plans the spans to read.
func (rs *roundScratch) plan(t *Tree) {
	slices.SortFunc(rs.union, func(a, b want) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.owner, b.owner))
	})
	rs.wants = rs.wants[:0]
	u := rs.union[:0]
	for _, w := range rs.union {
		if len(u) > 0 && u[len(u)-1].pos == w.pos {
			continue
		}
		u = append(u, w)
		rs.wants = append(rs.wants, w.pos)
	}
	rs.union = u
	rs.spans = rs.spans[:0]
	if !t.opt.OptimizedIO {
		for _, pos := range rs.wants {
			rs.spans = append(rs.spans, pagesched.PageSpan{First: pos, Last: pos})
		}
		return
	}
	// Pages beyond every cursor's pinned epoch have probability 0, so the
	// largest pinned page count bounds the plan.
	rs.sched.NumPages = 0
	for _, c := range rs.live {
		rs.sched.NumPages = max(rs.sched.NumPages, len(c.base().sn.entryAt))
	}
	rs.sched.Cfg = t.sto.Config()
	rs.spans = rs.sched.BatchAll(rs.spans, rs.wants)
}

// prob is the round's access probability of the page at pos: 1 for a
// wanted page, otherwise the probability that any live cursor will need
// it, 1 − Π(1 − p_c) (accumulated as p + q − pq, which is exactly p_c
// for a single cursor).
func (rs *roundScratch) prob(pos int) float64 {
	if rs.isWant(pos) {
		return 1
	}
	p := 0.0
	for _, c := range rs.live {
		if c.base().done {
			continue
		}
		q := c.accessProb(pos)
		p += q - p*q
		if 1-p < pagesched.ProbFloor {
			break
		}
	}
	return p
}

// isWant reports whether some live cursor wants the page at pos.
func (rs *roundScratch) isWant(pos int) bool {
	i := sort.SearchInts(rs.wants, pos)
	return i < len(rs.wants) && rs.wants[i] == pos
}

// leaderOf returns the first owner of a want inside the span that has not
// ended and whose context is not done, or nil. A canceled leader's
// session would fail the read at its cancellation check, aborting the
// span for every co-attached query and charging the doomed one for the
// transfer; the next round ends it instead.
func (rs *roundScratch) leaderOf(span pagesched.PageSpan) cursor {
	for i := sort.SearchInts(rs.wants, span.First); i < len(rs.wants) && rs.wants[i] <= span.Last; i++ {
		c := rs.live[rs.union[i].owner]
		b := c.base()
		if b.done {
			continue
		}
		if ctx := b.s.Context(); ctx != nil && ctx.Err() != nil {
			continue
		}
		return c
	}
	return nil
}

// read reads one planned span through its leader and offers the pages.
// A span read in one piece records the leader's batch decision in its
// trace; damage-forced page-granular reads record none. A failed read
// ends only the leader: the others re-want their pages next round under
// a new leader.
func (rs *roundScratch) read(t *Tree, span pagesched.PageSpan) {
	leader := rs.leaderOf(span)
	if leader == nil {
		return // every owner in the span ended or was canceled
	}
	rs.leader = leader
	lb := leader.base()
	pivot, pending := leader.pivot(), 0
	if lb.tr != nil {
		for pos := span.First; pos <= span.Last; pos++ {
			if leader.needs(pos) {
				pending++
			}
		}
	}
	pagewise, err := t.fetchRun(rs, lb.s, span)
	if err != nil {
		lb.finish(err)
		return
	}
	if !pagewise {
		lb.tr.AddBatch(obs.BatchDecision{Pivot: pivot, First: span.First, Last: span.Last, Pending: pending})
	}
}

// offer hands one fetched page to every live cursor, the leader first.
func (rs *roundScratch) offer(pg *sharedPage) {
	rs.pages++
	if !rs.leader.base().done && deliver(rs.leader, pg, false) {
		rs.serves++
	}
	for _, c := range rs.live {
		if c != rs.leader && !c.base().done && deliver(c, pg, true) {
			rs.serves++
		}
	}
}

// offerDegraded reports one unreadable page to every live cursor.
func (rs *roundScratch) offerDegraded(pos int) {
	for _, c := range rs.live {
		if !c.base().done {
			deliverDegraded(c, pos)
		}
	}
}

// contain ends c with index.ErrPanicked when the cursor call that defers
// it panicked, so one poisoned query cannot fail the others of a round.
func contain(c cursor) {
	if r := recover(); r != nil {
		c.base().finish(fmt.Errorf("%w: %v", index.ErrPanicked, r))
	}
}

func step(c cursor, buf []int) (wants []int) {
	defer contain(c)
	return c.step(buf)
}

func deliver(c cursor, pg *sharedPage, shared bool) (used bool) {
	defer contain(c)
	return c.deliver(pg, shared)
}

func deliverDegraded(c cursor, pos int) (acted bool) {
	defer contain(c)
	return c.deliverDegraded(pos)
}

// fetchRun reads the quantized pages of span through s in one contiguous
// read and offers each verified page. Known damage inside the span, or
// a checksum failure of the read, downgrades it to page-granular reads of
// the round's wanted pages only: quarantined and freshly corrupt pages
// are reported through offerDegraded (freshly corrupt compressed pages
// are quarantined first). pagewise reports that downgrade. The caller
// holds world.RLock.
func (t *Tree) fetchRun(rs *roundScratch, s *store.Session, span pagesched.PageSpan) (pagewise bool, err error) {
	pageBytes := t.qPageBytes()
	first, last := span.First, span.Last
	if !t.anyQuarantinedIn(first, last) {
		buf, err := s.Read(t.qFile, first, last-first+1)
		if err == nil {
			for pos := first; pos <= last; pos++ {
				rs.offer(rs.page.load(pos, buf[(pos-first)*pageBytes:(pos-first+1)*pageBytes], t.dim))
			}
			return false, nil
		}
		if !t.corruptQPage(err) {
			return false, err
		}
		// Fresh corruption somewhere in the run: localize it by retrying
		// each wanted page individually.
		s.Recover()
	}
	for pos := first; pos <= last; pos++ {
		if !rs.isWant(pos) {
			continue
		}
		if t.isQuarantined(pos) {
			rs.offerDegraded(pos)
			continue
		}
		buf, err := s.Read(t.qFile, pos, 1)
		if err != nil {
			if !t.corruptQPage(err) {
				return true, err
			}
			s.Recover()
			sn := t.load()
			if e := sn.entryIndex(pos); e >= 0 && int(sn.entries[e].Bits) != quantize.ExactBits {
				t.quarantinePage(pos)
			}
			rs.offerDegraded(pos)
			continue
		}
		rs.offer(rs.page.load(pos, buf[:pageBytes], t.dim))
	}
	return true, nil
}

// sharedPage is one fetched quantized page offered to every cursor of a
// round. Its codes bulk-decode into the page's arena on first use and
// are cached for every later cursor, so a page shared by many queries is
// decoded once; exact-mode pages (bits == 32) carry coordinates, which
// each cursor decodes into its own point arena from payload. Neither
// payload nor the codes may be retained past the delivery.
type sharedPage struct {
	pos, count, bits, dim int
	payload               []byte
	arena                 kernel.Arena
	decoded               []uint32 // nil until first use
}

// load resets the page to the raw page buf at pos and returns it.
func (pg *sharedPage) load(pos int, buf []byte, dim int) *sharedPage {
	qp := page.UnmarshalQPage(buf)
	pg.pos, pg.count, pg.bits, pg.dim = pos, qp.Count, qp.Bits, dim
	pg.payload, pg.decoded = qp.Payload, nil
	return pg
}

// codes returns the page's cell codes, decoding them on first use.
func (pg *sharedPage) codes() []uint32 {
	if pg.decoded == nil {
		pg.decoded = pg.arena.Unpack(pg.payload, pg.count*pg.dim, pg.bits)
	}
	return pg.decoded
}
