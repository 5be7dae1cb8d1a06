package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// Updates are copy-on-write: a writer clones the current snapshot,
// mutates the clone, appends new page versions to the data files (old
// positions are never overwritten, so concurrently pinned snapshots keep
// reading consistent bytes), and publishes the clone as the next epoch
// only when everything succeeded. A failed update publishes nothing; the
// blocks it appended become unreferenced garbage, reclaimed by the next
// Reoptimize like any other stale page version.
//
// In WAL mode (Options.WAL) each mutation additionally buffers its
// logical record inside the same t.mu critical section that applies it —
// so LSN order equals apply order and replay is deterministic — and the
// entry point acknowledges only after a commit made the record durable
// (see wal.go and DESIGN.md §13).

// Insert adds one point to the tree (paper Section 6 / end of 3.6): the
// point goes to the page needing least MBR enlargement; on page overflow
// the cost model decides between splitting the page and re-quantizing it
// at a coarser level. I/O performed by the maintenance operation is
// charged to s. It is InsertBatch of one point.
func (t *Tree) Insert(s *store.Session, p vec.Point, id uint32) error {
	return t.InsertBatch(s, []vec.Point{p}, []uint32{id})
}

// InsertBatch adds many points at once, grouping them by target page so
// that each affected page is read, re-quantized and rewritten exactly
// once, the directory is rewritten once at the end, and (in WAL mode)
// one log record covers the whole batch.
func (t *Tree) InsertBatch(s *store.Session, pts []vec.Point, ids []uint32) error {
	if len(pts) != len(ids) {
		return fmt.Errorf("core: %d points but %d ids", len(pts), len(ids))
	}
	for i, p := range pts {
		if len(p) != t.dim {
			return fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), t.dim)
		}
	}
	if len(pts) == 0 {
		return nil
	}
	cl := make([]vec.Point, len(pts))
	for i, p := range pts {
		cl[i] = p.Clone()
	}
	op := mutOp{kind: walKindInsertBatch, pts: cl, ids: append([]uint32(nil), ids...)}
	lsn, err := t.runMutation(s, op)
	if err != nil {
		return err
	}
	if err := t.commitDurable(lsn); err != nil {
		return err
	}
	return t.autoReoptimize(s)
}

// runMutation applies one logical insert under the writer locks and
// returns the WAL LSN to commit (0 when logging is off or nothing
// changed). The caller must not acknowledge the mutation before
// commitDurable(lsn) returns.
func (t *Tree) runMutation(s *store.Session, op mutOp) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sn := t.load().clone()
	if err := t.applyInsertBatch(s, sn, op.pts, op.ids); err != nil {
		return 0, err
	}
	return t.finishMutation(sn, op)
}

// applyInsertBatch mutates sn in place: many points, grouped by target
// page. Caller holds t.mu and owns pts.
func (t *Tree) applyInsertBatch(s *store.Session, sn *snapshot, pts []vec.Point, ids []uint32) error {
	groups := make(map[int][]int)
	for i, p := range pts {
		target := sn.chooseEntry(p)
		if target < 0 {
			// Every page is free (the tree was emptied by deletes): revive a
			// slot instead of failing the insert.
			target = sn.reviveFreeEntry()
		}
		if target < 0 {
			return fmt.Errorf("core: no page available for insert")
		}
		groups[target] = append(groups[target], i)
		sn.dataSpace.Extend(p)
	}
	sn.n += len(pts)
	sn.model.N = sn.n
	sn.model.DataSpace = sn.dataSpace

	// Deterministic processing order (map iteration is randomized, and the
	// order determines the disk layout of appended pages).
	targets := make([]int, 0, len(groups))
	for target := range groups {
		targets = append(targets, target)
	}
	sort.Ints(targets)
	for _, target := range targets {
		members := groups[target]
		oldBits := int(sn.entries[target].Bits)
		pagePts, pageIDs, err := t.readPagePoints(s, sn, target)
		if err != nil {
			return err
		}
		for _, i := range members {
			pagePts = append(pagePts, pts[i])
			pageIDs = append(pageIDs, ids[i])
		}
		t.storeGroup(s, sn, target, pagePts, pageIDs, oldBits)
	}
	return nil
}

// finishMutation completes an applied mutation under t.mu: verify no
// write failed, rewrite the directory, buffer the WAL record, capture
// the delta for an in-flight incremental reoptimization, and publish
// the epoch. A failed write leaves the directory file as it was, and
// nothing fallible sits between the WAL append and the publish, so a
// buffered record always corresponds to a published epoch.
func (t *Tree) finishMutation(sn *snapshot, op mutOp) (uint64, error) {
	if err := t.sto.Err(); err != nil {
		return 0, err
	}
	if err := t.writeDirectory(sn); err != nil {
		return 0, err
	}
	var lsn uint64
	if t.wal != nil {
		lsn = t.wal.Append(op.kind, encodeMutOp(op, t.dim))
	}
	if t.reopt != nil {
		t.reopt.deltas = append(t.reopt.deltas, op)
	}
	t.publish(sn)
	return lsn, nil
}

// commitDurable commits the mutation's WAL record (no-op when logging is
// off) and runs an automatic checkpoint when the log has outgrown its
// threshold. Called after the writer locks are released; a commit that
// an earlier writer's flush already covered does no I/O.
func (t *Tree) commitDurable(lsn uint64) error {
	if t.wal == nil || lsn == 0 {
		return nil
	}
	if err := t.wal.Commit(lsn); err != nil {
		return err
	}
	if n := t.opt.WALCheckpointBlocks; n > 0 && t.wal.Blocks() >= n {
		return t.Checkpoint()
	}
	return nil
}

// storeGroup writes a grown point group back to the page at `entry`: keep
// the page (possibly at a coarser level) or split it — recursively if the
// batch overflowed more than one level — with the cost model arbitrating
// between coarsening and splitting (Section 6).
func (t *Tree) storeGroup(s *store.Session, sn *snapshot, entry int, pts []vec.Point, ids []uint32, oldBits int) {
	newBits := t.fitBits(len(pts))
	if newBits > 0 {
		if newBits < oldBits && len(pts) >= 2 && t.splitIsCheaper(sn, entry, pts, newBits) {
			t.splitGroup(s, sn, entry, pts, ids)
		} else {
			t.rewritePage(s, sn, entry, pts, ids, newBits)
		}
		return
	}
	t.splitGroup(s, sn, entry, pts, ids)
}

// splitGroup median-splits a point group: the left half replaces the page
// at `entry`, the right half goes to a freshly appended entry; halves
// that still do not fit any level split further.
func (t *Tree) splitGroup(s *store.Session, sn *snapshot, entry int, pts []vec.Point, ids []uint32) {
	left, right := splitPoints(pts, ids)
	if bits := t.fitBits(len(left.pts)); bits > 0 {
		t.rewritePage(s, sn, entry, left.pts, left.ids, bits)
	} else {
		t.splitGroup(s, sn, entry, left.pts, left.ids)
	}
	sibling := sn.appendEntry()
	if bits := t.fitBits(len(right.pts)); bits > 0 {
		t.rewritePage(s, sn, sibling, right.pts, right.ids, bits)
	} else {
		t.splitGroup(s, sn, sibling, right.pts, right.ids)
	}
}

// Delete removes the point with the given coordinates and id. It returns
// found=false if no such point exists. A miss logs nothing; only a found
// delete produces a WAL record and a new epoch.
func (t *Tree) Delete(s *store.Session, p vec.Point, id uint32) (found bool, err error) {
	if len(p) != t.dim {
		return false, nil
	}
	op := mutOp{kind: walKindDelete, pts: []vec.Point{p.Clone()}, ids: []uint32{id}}
	var lsn uint64
	found, lsn, err = func() (bool, uint64, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		sn := t.load().clone()
		found, err := t.applyDelete(s, sn, op.pts[0], op.ids[0])
		if err != nil || !found {
			return found, 0, err
		}
		lsn, err := t.finishMutation(sn, op)
		return true, lsn, err
	}()
	if err != nil || !found {
		return found, err
	}
	if err := t.commitDurable(lsn); err != nil {
		return true, err
	}
	return true, t.autoReoptimize(s)
}

// applyDelete mutates sn in place: remove the first (id, coordinates)
// match, shrinking/merging/freeing its page. Caller holds t.mu.
func (t *Tree) applyDelete(s *store.Session, sn *snapshot, p vec.Point, id uint32) (bool, error) {
	for i, e := range sn.entries {
		if sn.free[i] || !e.MBR.Contains(p) {
			continue
		}
		pts, ids, err := t.readPagePoints(s, sn, i)
		if err != nil {
			return false, err
		}
		for j := range ids {
			if ids[j] == id && pts[j].Equal(p) {
				pts = append(pts[:j], pts[j+1:]...)
				ids = append(ids[:j], ids[j+1:]...)
				sn.n--
				sn.model.N = sn.n
				if len(pts) == 0 {
					sn.gen.forgetExact(e)
					sn.free[i] = true
					sn.entries[i].Count = 0
					sn.clearOwner(int(sn.entries[i].QPos), i)
				} else {
					t.rewritePage(s, sn, i, pts, ids, t.fitBits(len(pts)))
					if err := t.tryMerge(s, sn, i); err != nil {
						return false, err
					}
				}
				return true, nil
			}
		}
	}
	return false, nil
}

// applyMutOp dispatches a decoded WAL record through the same apply path
// the live mutation took, keeping replay bit-identical. Caller holds t.mu
// or owns the tree (recovery).
func (t *Tree) applyMutOp(s *store.Session, sn *snapshot, op mutOp) error {
	switch op.kind {
	case walKindInsertBatch:
		return t.applyInsertBatch(s, sn, op.pts, op.ids)
	case walKindDelete:
		_, err := t.applyDelete(s, sn, op.pts[0], op.ids[0])
		return err
	default:
		return fmt.Errorf("core: unknown WAL record kind %d", op.kind)
	}
}

// tryMerge implements the paper's "undo the split" maintenance (Section 6
// and end of 3.6): when a page has shrunk enough, look for a merge
// partner such that the combined page — stored at its affordable level —
// is predicted cheaper by the cost model than keeping the two pages (one
// fewer directory entry and second-level page). The partner with the
// smallest union volume is considered.
func (t *Tree) tryMerge(s *store.Session, sn *snapshot, entry int) error {
	e := sn.entries[entry]
	if int(e.Count) > t.pageCapacity(quantize.ExactBits)/2 {
		return nil // not small enough to bother
	}
	best, bestVol := -1, math.Inf(1)
	for j := range sn.entries {
		if j == entry || sn.free[j] {
			continue
		}
		if t.fitBits(int(e.Count)+int(sn.entries[j].Count)) == 0 {
			continue // combined page would not fit any level
		}
		u := e.MBR.Clone()
		u.ExtendMBR(sn.entries[j].MBR)
		if v := u.Volume(); v < bestVol {
			bestVol = v
			best = j
		}
	}
	if best < 0 {
		return nil
	}
	o := sn.entries[best]
	union := e.MBR.Clone()
	union.ExtendMBR(o.MBR)
	mergedCount := int(e.Count) + int(o.Count)
	mergedBits := t.fitBits(mergedCount)
	mergedVar := sn.model.RefinementCost(union, mergedCount, mergedBits)
	separateVar := sn.model.RefinementCost(e.MBR, int(e.Count), int(e.Bits)) +
		sn.model.RefinementCost(o.MBR, int(o.Count), int(o.Bits))
	n := sn.livePages()
	constNow := sn.model.DirectoryCost(n) + sn.model.SecondLevelCost(n)
	constMerged := sn.model.DirectoryCost(n-1) + sn.model.SecondLevelCost(n-1)
	if constMerged+mergedVar >= constNow+separateVar {
		return nil // keeping the split is predicted cheaper
	}
	pts, ids, err := t.readPagePoints(s, sn, entry)
	if err != nil {
		return err
	}
	pts2, ids2, err := t.readPagePoints(s, sn, best)
	if err != nil {
		return err
	}
	pts = append(pts, pts2...)
	ids = append(ids, ids2...)
	t.rewritePage(s, sn, entry, pts, ids, mergedBits)
	sn.gen.forgetExact(o)
	sn.free[best] = true
	sn.entries[best].Count = 0
	sn.clearOwner(int(sn.entries[best].QPos), best)
	return nil
}

// chooseEntry picks the page for an insert: the containing page with the
// smallest volume, else the page with the least volume enlargement
// (the classic R-tree ChooseLeaf on a flat directory).
func (sn *snapshot) chooseEntry(p vec.Point) int {
	best := -1
	bestVol := math.Inf(1)
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		if e.MBR.Contains(p) {
			if v := e.MBR.Volume(); v < bestVol {
				bestVol = v
				best = i
			}
		}
	}
	if best >= 0 {
		return best
	}
	bestEnl := math.Inf(1)
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		ext := e.MBR.Clone()
		ext.Extend(p)
		enl := ext.Volume() - e.MBR.Volume()
		if enl < bestEnl || (enl == bestEnl && best >= 0 && ext.Volume() < bestVol) {
			bestEnl = enl
			bestVol = ext.Volume()
			best = i
		}
	}
	return best
}

// readPagePoints loads the exact points and ids of a page, charging s.
func (t *Tree) readPagePoints(s *store.Session, sn *snapshot, entry int) ([]vec.Point, []uint32, error) {
	e := sn.entries[entry]
	if e.Count == 0 {
		return nil, nil, nil // empty (e.g. just-revived or appended) page: nothing to read
	}
	if e.Bits == quantize.ExactBits {
		buf, err := s.Read(sn.gen.q, int(e.QPos), 1)
		if err != nil {
			return nil, nil, err
		}
		qp := page.UnmarshalQPage(buf)
		pts, ids := qp.ExactPoints(t.dim)
		return pts, ids, nil
	}
	raw, err := t.readExact(s, sn, entry, 0, int(e.Count))
	if err != nil {
		return nil, nil, err
	}
	entrySize := page.ExactEntrySize(t.dim)
	pts := make([]vec.Point, e.Count)
	ids := make([]uint32, e.Count)
	for i := 0; i < int(e.Count); i++ {
		pts[i], ids[i] = page.UnmarshalExactEntry(raw[i*entrySize:], t.dim)
	}
	return pts, ids, nil
}

// readExact reads slots [lo, hi) of the exact (level-3) page of sn's
// entry through s: the one read of an exact page.
func (t *Tree) readExact(s *store.Session, sn *snapshot, entry, lo, hi int) ([]byte, error) {
	size := page.ExactEntrySize(t.dim)
	raw, rel, err := s.ReadRange(sn.gen.e, int(sn.entries[entry].EPos)*t.blockSize+lo*size, (hi-lo)*size)
	if err != nil {
		return nil, err
	}
	return raw[rel:], nil
}

// splitIsCheaper compares, under the cost model, coarsening the page to
// newBits against splitting it into two pages (each at its own affordable
// level). It returns true when the split is predicted cheaper.
func (t *Tree) splitIsCheaper(sn *snapshot, entry int, pts []vec.Point, newBits int) bool {
	mbr := vec.MBROf(pts)
	coarsenVar := sn.model.RefinementCost(mbr, len(pts), newBits)

	lpts, rpts := splitPoints(pts, nil)
	lm, rm := vec.MBROf(lpts.pts), vec.MBROf(rpts.pts)
	splitVar := sn.model.RefinementCost(lm, len(lpts.pts), t.fitBits(len(lpts.pts))) +
		sn.model.RefinementCost(rm, len(rpts.pts), t.fitBits(len(rpts.pts)))

	nLive := sn.livePages()
	constNow := sn.model.DirectoryCost(nLive) + sn.model.SecondLevelCost(nLive)
	constSplit := sn.model.DirectoryCost(nLive+1) + sn.model.SecondLevelCost(nLive+1)
	return constSplit+splitVar < constNow+coarsenVar
}

// half carries one side of a point split.
type half struct {
	pts []vec.Point
	ids []uint32
}

// splitPoints splits a point set at the median of its MBR's longest
// dimension (the builder's split heuristic). ids may be nil.
func splitPoints(pts []vec.Point, ids []uint32) (left, right half) {
	mbr := vec.MBROf(pts)
	dim, _ := mbr.MaxSide()
	ord := make([]int, len(pts))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return pts[ord[a]][dim] < pts[ord[b]][dim] })
	mid := len(pts) / 2
	for i, o := range ord {
		h := &left
		if i >= mid {
			h = &right
		}
		h.pts = append(h.pts, pts[o])
		if ids != nil {
			h.ids = append(h.ids, ids[o])
		}
	}
	return left, right
}

// rewritePage re-quantizes a page out of place through writePages: new
// MBR, new level, a freshly appended second-level page version, and (for
// compressed levels) a fresh exact page. The old regions become garbage
// — they stay readable for snapshots pinned before this update and are
// reclaimed by the next Reoptimize.
func (t *Tree) rewritePage(s *store.Session, sn *snapshot, entry int, pts []vec.Point, ids []uint32, bits int) {
	if bits <= 0 {
		panic("core: rewritePage with non-fitting bits")
	}
	old := sn.entries[entry]
	sn.clearOwner(int(old.QPos), entry)
	t.setPage(sn, entry, len(pts), bits, vec.MBROf(pts))
	// A failed write is also the store's sticky error, which the update
	// entry points check before they write the directory or publish.
	_ = t.writePages(sn, entry, entry+1, pts, ids,
		make([]byte, t.blockSize), make([]byte, int(sn.entries[entry].EBlocks)*t.blockSize))
	sn.gen.forgetExact(old)
	// Write cost: one seek plus the page transfer, attributed to the
	// quantized file (the exact-page rewrite rides on the same pass).
	s.ChargeWrite(sn.gen.q, 1, 1)
}

// forgetExact drops the pooled frames of a superseded exact page
// version. Copy-on-write leaves its bytes in place, so a reader pinned to
// an older epoch just misses; a superseded quantized version stays
// pooled, because a batch read spans the dead versions between live ones.
func (g *generation) forgetExact(e page.DirEntry) {
	g.e.Forget(int(e.EPos), int(e.EBlocks))
}

// writeDirectory serializes the whole first-level directory (it is
// small and scanned linearly anyway), then the superblock. The file
// never shrinks here, so a query pinned to an older epoch, of a retired
// generation too, reads its whole extent; retire trims it.
func (t *Tree) writeDirectory(sn *snapshot) error {
	size := page.DirEntrySize(t.dim)
	dirBuf := make([]byte, max(len(sn.entries)*size, t.dirFile.Bytes()))
	for i := range sn.entries {
		sn.entries[i].Marshal(dirBuf[i*size:], t.dim)
	}
	if err := t.dirFile.SetContents(dirBuf); err != nil {
		return err
	}
	sn.dirBlocks = t.dirExtent(len(sn.entries))
	return t.writeMeta(sn)
}

// ErrEmptyTree reports a maintenance operation that needs at least one
// live point — reoptimization rebuilds the physical structure from the
// data, and an emptied tree has none to rebuild from.
var ErrEmptyTree = errors.New("core: cannot reoptimize an empty tree")

// Reoptimize rebuilds the tree's physical structure from scratch over its
// current contents: fresh packed partitions, a fresh optimal quantization,
// and compacted files (garbage page versions from past updates are
// dropped). The paper notes that updates require "careful book-keeping"
// to maintain optimality; this batch variant simply drives the
// incremental stepper (reopt.go) to completion, so queries and updates
// keep running throughout: the final swap makes writers wait like any
// other write, and queries never wait for it.
func (t *Tree) Reoptimize() error {
	for {
		done, err := t.ReoptimizeStep(t.sto.NewSession())
		if err != nil || done {
			return err
		}
	}
}

// AllPoints returns every live (point, id) pair by reading the data files
// without charging any session (a maintenance/verification helper).
func (t *Tree) AllPoints() ([]vec.Point, []uint32, error) {
	sn := t.pin()
	defer sn.unpin()
	pts, ids, _, err := t.allPoints(sn)
	return pts, ids, err
}

// allPoints reads every live point of sn and its id, page by page;
// firsts[i] is the index in pts of entry i's first point.
func (t *Tree) allPoints(sn *snapshot) (pts []vec.Point, ids []uint32, firsts []int, err error) {
	free := t.sto.NewSession()
	firsts = make([]int, len(sn.entries))
	for i := range sn.entries {
		firsts[i] = len(pts)
		if sn.free[i] {
			continue
		}
		p, id, err := t.readPagePoints(free, sn, i)
		if err != nil {
			return nil, nil, nil, err
		}
		pts = append(pts, p...)
		ids = append(ids, id...)
	}
	return pts, ids, firsts, nil
}
