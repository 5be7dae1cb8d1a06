package core

import (
	"fmt"
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
// quantized-page fetch boundary, and round advances it by one fetch. A
// query — KNN, KNNApprox, KNNInto, RangeSearch, WindowQuery — is a loop
// of rounds over its one cursor (execute) under one pinned epoch.

// cursor is one query suspended at its quantized-page fetch boundary.
type cursor interface {
	base() *cursorBase
	// step advances the query to its next fetch boundary and appends the
	// page positions it needs to buf, ascending and distinct. It appends
	// nothing exactly when the query ended (base().done).
	step(buf []int) []int
	// needs reports whether the page at pos is still pending for the
	// query; a read's batch decision counts these.
	needs(pos int) bool
	// accessProb estimates the probability that the query will need the
	// page at pos later in its run (paper Sec. 2.2): 0 for pages it has
	// consumed, pruned or will never touch, 1 for pages it certainly reads.
	accessProb(pos int) float64
	// pivot is the page the query's best-first order fetches next, the
	// pivot of its batch; -1 for a known-set scan.
	pivot() int
	// deliver offers one fetched page; the query accounts the transfer.
	deliver(pg *fetchedPage)
	// deliverDegraded reports that the page at pos, which the query
	// wants this round, is unreadable (quarantined or corrupt); the query
	// answers it from the exact level or fails typed.
	deliverDegraded(pos int)
}

// cursorBase is the state a round reads from its cursor: the session it
// charges, its trace, the epoch it pinned and how it ended.
type cursorBase struct {
	s    *store.Session
	tr   *Trace
	sn   *snapshot
	done bool
	err  error
}

func (b *cursorBase) base() *cursorBase { return b }

// finish ends the query; the first error wins.
func (b *cursorBase) finish(err error) {
	b.done = true
	if b.err == nil {
		b.err = err
	}
}

// canceled reports whether the query's context is done.
func (b *cursorBase) canceled() bool {
	ctx := b.s.Context()
	return ctx != nil && ctx.Err() != nil
}

// roundScratch is the reusable state of a session's rounds: the cursor
// they advance and its planning buffers. It is single-goroutine state,
// and a warmed one makes rounds allocation-free.
type roundScratch struct {
	c     cursor
	wants []int // the cursor's wanted pages this round, ascending
	spans []pagesched.PageSpan
	sched pagesched.Scheduler
	page  fetchedPage
}

func (rs *roundScratch) init() {
	rs.sched.Prob = rs.prob
}

// execute runs one query: rounds over its cursor until it ends. The
// cursor's snapshot is pinned for the whole query, so the query sees one
// epoch and its generation's files.
func (t *Tree) execute(sc *queryScratch, c cursor) error {
	rs := &sc.round
	rs.c = c
	for t.round(rs) {
	}
	rs.c = nil
	return c.base().err
}

// round advances the query's cursor by one fetch round.
//
//  1. The cursor steps to its fetch boundary; a query whose context is
//     done ends with store.ErrCanceled instead.
//  2. The wanted pages are planned with BatchAll over the query's access
//     probabilities (paper Sec. 2.1; for a known-set scan the
//     probabilities are 0 and 1, which is Fig. 1). With OptimizedIO off
//     every want is read alone.
//  3. Each span is read through the query's session and every page is
//     offered to the cursor; every unreadable page is reported to it.
//
// A panic in the cursor's step or delivery ends the query with
// index.ErrPanicked. round reports whether the cursor wanted pages.
func (t *Tree) round(rs *roundScratch) bool {
	b := rs.c.base()
	if b.done {
		return false
	}
	if b.canceled() {
		b.finish(fmt.Errorf("%w: %w", store.ErrCanceled, b.s.Context().Err()))
		return false
	}
	rs.wants = step(rs.c, rs.wants[:0])
	if len(rs.wants) == 0 {
		return false // ended
	}
	rs.spans = rs.spans[:0]
	if !t.opt.OptimizedIO {
		for _, pos := range rs.wants {
			rs.spans = append(rs.spans, pagesched.PageSpan{First: pos, Last: pos})
		}
	} else {
		// Pages beyond the pinned epoch have probability 0.
		rs.sched.NumPages = len(b.sn.entryAt)
		rs.sched.Cfg = t.sto.Config()
		rs.spans = rs.sched.BatchAll(rs.spans, rs.wants)
	}
	for _, span := range rs.spans {
		rs.read(t, span)
	}
	return true
}

// prob is the round's access probability of the page at pos: 1 for a
// wanted page, otherwise the probability that the query will need it.
func (rs *roundScratch) prob(pos int) float64 {
	if rs.isWant(pos) {
		return 1
	}
	return rs.c.accessProb(pos)
}

// isWant reports whether the cursor wants the page at pos this round.
func (rs *roundScratch) isWant(pos int) bool {
	i := sort.SearchInts(rs.wants, pos)
	return i < len(rs.wants) && rs.wants[i] == pos
}

// read reads one planned span and offers its pages to the cursor. A span
// read in one piece records the query's batch decision in its trace;
// damage-forced page-granular reads record none. A query that ended, or
// whose context is done, reads nothing more: its session would fail the
// read at the cancellation check, and the next round ends the query
// instead.
func (rs *roundScratch) read(t *Tree, span pagesched.PageSpan) {
	c := rs.c
	b := c.base()
	if b.done || b.canceled() {
		return
	}
	pivot, pending := c.pivot(), 0
	if b.tr != nil {
		for pos := span.First; pos <= span.Last; pos++ {
			if c.needs(pos) {
				pending++
			}
		}
	}
	pagewise, err := t.fetchRun(rs, b.s, span)
	if err != nil {
		b.finish(err)
		return
	}
	if !pagewise {
		b.tr.AddBatch(obs.BatchDecision{Pivot: pivot, First: span.First, Last: span.Last, Pending: pending})
	}
}

// offer hands one fetched page to the cursor unless the query ended.
func (rs *roundScratch) offer(pg *fetchedPage) {
	if !rs.c.base().done {
		deliver(rs.c, pg)
	}
}

// offerDegraded reports one unreadable page to the cursor unless the
// query ended.
func (rs *roundScratch) offerDegraded(pos int) {
	if !rs.c.base().done {
		deliverDegraded(rs.c, pos)
	}
}

// contain ends c with index.ErrPanicked when the cursor call that defers
// it panicked, so a poisoned query fails typed instead of panicking its
// caller.
func contain(c cursor) {
	if r := recover(); r != nil {
		c.base().finish(fmt.Errorf("%w: %v", index.ErrPanicked, r))
	}
}

func step(c cursor, buf []int) (wants []int) {
	defer contain(c)
	return c.step(buf)
}

func deliver(c cursor, pg *fetchedPage) {
	defer contain(c)
	c.deliver(pg)
}

func deliverDegraded(c cursor, pos int) {
	defer contain(c)
	c.deliverDegraded(pos)
}

// fetchRun reads the quantized pages of span through s in one contiguous
// read and offers each verified page. Known damage inside the span, or
// a checksum failure of the read, downgrades it to page-granular reads of
// the round's wanted pages only: quarantined and freshly corrupt pages
// are reported through offerDegraded (freshly corrupt compressed pages
// are quarantined first). pagewise reports that downgrade. The pages
// are read from the generation of the cursor's pinned snapshot.
func (t *Tree) fetchRun(rs *roundScratch, s *store.Session, span pagesched.PageSpan) (pagewise bool, err error) {
	pageBytes := t.qPageBytes()
	first, last := span.First, span.Last
	sn := rs.c.base().sn
	g := sn.gen
	if !g.anyQuarantinedIn(first, last) {
		buf, err := s.Read(g.q, first, last-first+1)
		if err == nil {
			for pos := first; pos <= last; pos++ {
				rs.offer(rs.page.load(pos, buf[(pos-first)*pageBytes:(pos-first+1)*pageBytes], t.dim))
			}
			return false, nil
		}
		if !g.corruptQPage(err) {
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
		if g.isQuarantined(pos) {
			rs.offerDegraded(pos)
			continue
		}
		buf, err := s.Read(g.q, pos, 1)
		if err != nil {
			if !g.corruptQPage(err) {
				return true, err
			}
			s.Recover()
			if e := sn.entryIndex(pos); e >= 0 && int(sn.entries[e].Bits) != quantize.ExactBits {
				g.quarantinePage(pos)
			}
			rs.offerDegraded(pos)
			continue
		}
		rs.offer(rs.page.load(pos, buf[:pageBytes], t.dim))
	}
	return true, nil
}

// fetchedPage is one fetched quantized page offered to a round's cursor.
// Its codes bulk-decode into the page's arena on first use, so a page the
// query prunes is never decoded; exact-mode pages (bits == 32) carry
// coordinates, which the cursor decodes into its point arena from
// payload. Neither payload nor the codes may be retained past the
// delivery.
type fetchedPage struct {
	pos, count, bits, dim int
	payload               []byte
	arena                 kernel.Arena
	decoded               []uint32 // nil until first use
}

// load resets the page to the raw page buf at pos and returns it.
func (pg *fetchedPage) load(pos int, buf []byte, dim int) *fetchedPage {
	qp := page.UnmarshalQPage(buf)
	pg.pos, pg.count, pg.bits, pg.dim = pos, qp.Count, qp.Bits, dim
	pg.payload, pg.decoded = qp.Payload, nil
	return pg
}

// codes returns the page's cell codes, decoding them on first use.
func (pg *fetchedPage) codes() []uint32 {
	if pg.decoded == nil {
		pg.decoded = pg.arena.Unpack(pg.payload, pg.count*pg.dim, pg.bits)
	}
	return pg.decoded
}
