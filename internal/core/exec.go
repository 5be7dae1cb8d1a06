package core

import (
	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/page"
	"repro/internal/pagesched"
	"repro/internal/quantize"
	"repro/internal/store"
)

// The tree has one query executor. Every query kind is a resumable
// cursor (knnCursor, scanCursor) that suspends at its quantized-page
// fetch boundary. Two drivers step them: the engine's scan-sharing
// coordinator merges the wants of many in-flight cursors per round (see
// shared.go), and execute below runs one cursor on its own — the path
// of KNN, KNNApprox, KNNInto, NearestNeighbor, RangeSearch, WindowQuery
// and NNIterator. Both fetch through fetchRun, so damage handling is one
// code path too.

// soloCursor is the unlocked face of a cursor that execute drives. The
// caller holds world.RLock for the whole query, so none of these
// methods re-validate the reorganization generation.
type soloCursor interface {
	index.Cursor
	// step is Step's body.
	step() (done bool, err error)
	// wanted reports whether the page at pos is still pending for the
	// query; damage-forced page-granular reads fetch only these.
	wanted(pos int) bool
	// degraded serves an unreadable pending page from its exact shadow.
	degraded(pos int)
	// plan turns the cursor's wants into page spans to read, appending
	// them to sc.spans.
	plan(sc *queryScratch, wants []int) []pagesched.PageSpan
	// noteRead records one read span's batch decision in the trace:
	// pending is the number of pages of the span the query still needed,
	// pagewise whether damage forced page-granular reads, got the
	// positions actually delivered.
	noteRead(span pagesched.PageSpan, pending int, pagewise bool, got []int)
}

// execute drives one query to completion on its own. Each turn steps the
// cursor to its fetch boundary, takes its wants, plans them with the
// cursor's policy and reads every planned span, delivering each page to
// the cursor as the leader of the read.
func (t *Tree) execute(s *store.Session, sc *queryScratch, c soloCursor) error {
	for {
		done, err := c.step()
		if done || err != nil {
			return err
		}
		sc.wants = c.Wants(sc.wants[:0])
		for _, span := range c.plan(sc, sc.wants) {
			pending := 0
			for pos := span.First; pos <= span.Last; pos++ {
				if c.wanted(pos) {
					pending++
				}
			}
			sc.got = sc.got[:0]
			pagewise, err := t.fetchRun(s, &sc.dec, span.First, span.Last, c.wanted,
				func(pg *index.SharedPage) {
					sc.got = append(sc.got, pg.Pos)
					c.Deliver(pg, false)
				}, c.degraded)
			if err != nil {
				return err
			}
			c.noteRead(span, pending, pagewise, sc.got)
		}
	}
}

// fetchRun reads quantized pages [first, last] through s in one
// contiguous read, delivering each verified page (decoded at most once
// by dec). Known damage inside the span, or a checksum failure of the
// read, downgrades it to page-granular reads of the wanted positions
// only: quarantined and freshly corrupt pages are reported through
// degraded (freshly corrupt compressed pages are quarantined first).
// pagewise reports that downgrade. The caller holds world.RLock at a
// validated generation.
func (t *Tree) fetchRun(s *store.Session, dec *pageDecoder, first, last int, wanted func(pos int) bool,
	deliver func(pg *index.SharedPage), degraded func(pos int)) (pagewise bool, err error) {
	pb := t.opt.QPageBlocks
	pageBytes := t.qPageBytes()
	if !t.anyQuarantinedIn(first, last) {
		buf, err := s.Read(t.qFile, first*pb, (last-first+1)*pb)
		if err == nil {
			for pos := first; pos <= last; pos++ {
				dec.deliver(pos, buf[(pos-first)*pageBytes:(pos-first+1)*pageBytes], t.dim, deliver)
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
		if !wanted(pos) {
			continue
		}
		if t.isQuarantined(pos) {
			degraded(pos)
			continue
		}
		buf, err := s.Read(t.qFile, pos*pb, pb)
		if err != nil {
			if !t.corruptQPage(err) {
				return true, err
			}
			s.Recover()
			sn := t.load()
			if e := sn.entryIndex(pos); e >= 0 && int(sn.entries[e].Bits) != quantize.ExactBits {
				t.quarantinePage(pos)
			}
			degraded(pos)
			continue
		}
		dec.deliver(pos, buf[:pageBytes], t.dim, deliver)
	}
	return true, nil
}

// pageDecoder presents raw quantized pages as index.SharedPages whose
// Codes bulk-decode into the decoder's arena on first use, so a page
// offered to many cursors is decoded once. It serves one page at a time
// and reuses the page value and its Codes closure, so delivering a page
// allocates nothing.
type pageDecoder struct {
	arena   kernel.Arena
	pg      index.SharedPage
	dim     int
	codes   []uint32 // pg's decoded codes; nil until first use
	codesFn func() []uint32
}

func (d *pageDecoder) deliver(pos int, buf []byte, dim int, deliver func(pg *index.SharedPage)) {
	qp := page.UnmarshalQPage(buf)
	d.pg = index.SharedPage{Pos: pos, Count: qp.Count, Bits: qp.Bits, Payload: qp.Payload}
	d.dim, d.codes = dim, nil
	if qp.Bits != quantize.ExactBits {
		if d.codesFn == nil {
			d.codesFn = d.decode
		}
		d.pg.Codes = d.codesFn
	}
	deliver(&d.pg)
}

func (d *pageDecoder) decode() []uint32 {
	if d.codes == nil {
		d.codes = d.arena.Unpack(d.pg.Payload, d.pg.Count*d.dim, d.pg.Bits)
	}
	return d.codes
}
