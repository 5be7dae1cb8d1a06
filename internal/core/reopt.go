package core

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// Incremental reoptimization (DESIGN.md §13). The rebuild is decomposed
// into steps that overlap with queries and updates:
//
//	begin:  pin the current snapshot and start capturing logical deltas
//	        (under t.mu, so the pin and the capture marker are atomic
//	        with respect to writers), then plan the new layout lock-free
//	        from the pinned snapshot and create generation N+1's files.
//	middle: write one planned page into the new generation's files —
//	        invisible to queries, which keep serving generation N —
//	        reading its points back from the pinned pages, and repair at
//	        most one quarantined live page.
//	final:  under t.mu, like any writer, apply the captured deltas
//	        through the normal apply path (the inserts as one batch,
//	        then the deletes), write the directory, (in WAL mode)
//	        checkpoint so the swap is the durable commit point, and
//	        publish the new generation's first epoch; then, without
//	        t.mu, retire generation N (see retire).
//
// Snapshot correctness: every epoch names its generation, which a query
// holds for read while it runs, so a query reads the generation it
// pinned to the end, never waits for the swap, and is waited for by
// the retirement that removes those files.

var (
	metricReoptSteps = obs.Default().Counter("reopt.steps")
	metricReoptPages = obs.Default().Counter("reopt.pages_requantized")
)

// reoptState is one in-flight incremental reoptimization. The stepper
// (serialized by t.reoptMu) owns every field except deltas, which
// writers append to under t.mu.
//
// At the pin the run sets its next epoch's directory from the plan
// (Plan.setPlanned), and each step writes the next of its pages through
// writePages, as the bulk load does; the swap publishes that epoch. The
// run does not hold the points it lays out: entry i of the next epoch
// holds points perm[Base:Base+Count], named by their index in the pinned
// snapshot's page order, and the step that writes the page reads them
// back from the pinned pages, which copy-on-write leaves in place until
// the swap. A run in flight thus holds about four bytes per point and
// one directory entry per planned page, not the points.
type reoptState struct {
	sn     *snapshot // the next epoch, on the new generation; its pages [0, next) are written
	perm   []int32   // next-epoch entry i holds points perm[Base:Base+Count]
	pinned *snapshot // the snapshot the plan was made from
	firsts []int     // firsts[i]: index of pinned entry i's first point
	next   int       // next entry of sn to write
	deltas []mutOp   // mutations since the pin; guarded by t.mu
	qStart int       // blocks of the live quantized file at the pin
}

// ReoptimizeRunning reports whether an incremental reoptimization is in
// flight (begun but not yet finished or aborted).
func (t *Tree) ReoptimizeRunning() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reopt != nil
}

// ReoptimizeStep advances the incremental reoptimization by one bounded
// unit of work and reports whether the run completed. The first call
// begins a run (pin + plan); each following call re-quantizes one
// partition into the next generation's files and drains at most one
// quarantined page; the call after the last partition performs the swap.
// I/O is charged to s. Steps may interleave freely with queries and
// updates; concurrent callers serialize on an internal mutex.
func (t *Tree) ReoptimizeStep(s *store.Session) (done bool, err error) {
	t.reoptMu.Lock()
	defer t.reoptMu.Unlock()
	return t.reoptStep(s)
}

// reoptStep is ReoptimizeStep. Caller holds t.reoptMu.
func (t *Tree) reoptStep(s *store.Session) (done bool, err error) {
	metricReoptSteps.Inc()
	if t.reopt == nil {
		return false, t.reoptBegin()
	}
	if _, err := t.repairOne(s); err != nil {
		return false, err
	}
	r := t.reopt
	if i := r.next; i < len(r.sn.entries) {
		pts, ids, err := t.pinnedPoints(r, i)
		if err == nil {
			err = t.writePages(r.sn, i, i+1, pts, ids,
				make([]byte, t.blockSize), make([]byte, int(r.sn.entries[i].EBlocks)*t.blockSize))
		}
		if err != nil {
			t.reoptAbort()
			return false, err
		}
		r.next++
		metricReoptPages.Inc()
		return false, nil
	}
	if err := t.reoptFinish(s); err != nil {
		return false, err
	}
	return true, nil
}

// reoptBehind reports whether the in-flight run has written fewer pages
// into the next generation than the live quantized file has grown since
// the pin. Caller holds t.reoptMu, which keeps the pinned generation live.
func (t *Tree) reoptBehind() bool {
	r := t.reopt
	return r != nil && r.next < r.pinned.gen.q.Blocks()-r.qStart
}

// reoptBegin pins the current state and computes the new layout. Caller
// holds t.reoptMu.
func (t *Tree) reoptBegin() error {
	// Pin and arm delta capture atomically with respect to writers.
	t.mu.Lock()
	pinned := t.load()
	r := &reoptState{qStart: pinned.gen.q.Blocks()}
	t.reopt = r
	t.mu.Unlock()
	// Plan lock-free against the pinned snapshot: copy-on-write keeps
	// its pages readable while writers publish newer epochs (those
	// mutations arrive as deltas), and only this run's swap retires it.
	pts, _, firsts, err := t.allPoints(pinned)
	if err != nil {
		t.reoptAbort()
		return err
	}
	if len(pts) == 0 {
		t.reoptAbort()
		return ErrEmptyTree
	}
	dataSpace := vec.MBROf(pts)
	// The pinned data space may exceed the union of live MBRs (it never
	// shrinks); keep it so replanned decisions match the live model's.
	dataSpace.ExtendMBR(pinned.dataSpace)
	model := pinned.model
	model.N, model.DataSpace = len(pts), dataSpace
	p := newPlan(t.geometry, t.opt, model, pts)
	g, err := t.generationFiles(pinned.gen.n+1, true)
	if err != nil {
		t.reoptAbort()
		return err
	}
	r.sn, r.perm, r.pinned, r.firsts = p.setPlanned(), p.perm, pinned, firsts
	r.sn.gen = g
	return nil
}

// pinnedPoints reads the points of the next epoch's entry i and their
// ids back from the pinned snapshot's pages, in page order: point k of
// the plan is slot k − firsts[j] of the last pinned entry j with
// firsts[j] ≤ k. The pages are immutable, so each holds the points it
// held at the plan. Each source page is read once, and only the slots
// the page takes are decoded. The reads are charged to no session.
// Caller holds t.reoptMu, which keeps the pinned generation's files in
// place.
func (t *Tree) pinnedPoints(r *reoptState, i int) ([]vec.Point, []uint32, error) {
	type pinnedPage struct {
		raw []byte      // an exact-level page's exact entries
		pts []vec.Point // a 32-bit page's points
		ids []uint32
	}
	s := t.sto.NewSession()
	size := page.ExactEntrySize(t.dim)
	read := map[int]pinnedPage{}
	planned := r.sn.entries[i]
	pts := make([]vec.Point, planned.Count)
	ids := make([]uint32, planned.Count)
	for j, k := range r.perm[planned.Base : planned.Base+planned.Count] {
		src := sort.SearchInts(r.firsts, int(k)+1) - 1
		slot := int(k) - r.firsts[src]
		pg, ok := read[src]
		if !ok {
			e := r.pinned.entries[src]
			var err error
			if e.Bits == quantize.ExactBits {
				pg.pts, pg.ids, err = t.readPagePoints(s, r.pinned, src)
			} else {
				pg.raw, err = t.readExact(s, r.pinned, src, 0, int(e.Count))
			}
			if err != nil {
				return nil, nil, err
			}
			read[src] = pg
		}
		if pg.raw != nil {
			pts[j], ids[j] = page.UnmarshalExactEntry(pg.raw[slot*size:], t.dim)
		} else {
			pts[j], ids[j] = pg.pts[slot], pg.ids[slot]
		}
	}
	return pts, ids, nil
}

// reoptAbort tears down an in-flight run: capture stops, partially
// written next-generation files are removed. Caller holds t.reoptMu.
func (t *Tree) reoptAbort() {
	t.mu.Lock()
	t.reopt = nil
	t.mu.Unlock()
	_ = t.sweep(t.load().gen.n) // a failed removal is the store's sticky error
}

// reoptFinish swaps the tree to the freshly built generation, then
// retires the old one. In WAL mode the new generation's first checkpoint
// record is the durable commit point of the swap (a crash before it
// recovers the old generation plus the WAL, a crash after it the new
// one). A swap that fails before its publish has nothing on the tree to
// undo: only the new generation's files go.
func (t *Tree) reoptFinish(s *store.Session) error {
	t.mu.Lock()
	r, old := t.reopt, t.load().gen
	t.reopt = nil // stop delta capture; r.deltas is complete
	err := t.swap(s, r)
	published := t.load().gen != old
	t.mu.Unlock()
	if !published {
		_ = t.sweep(old.n) // a failed removal is the store's sticky error
		return err
	}
	t.retire(old)
	return err
}

// swap applies the run's deltas to its next epoch, writes the directory,
// checkpoints in WAL mode and publishes the epoch. Caller holds t.mu.
func (t *Tree) swap(s *store.Session, r *reoptState) error {
	// The new generation holds every pinned point already. The captured
	// inserts go in as one batch, which rewrites each page it touches
	// once, then the captured deletes in log order. Each delete then sees
	// at least as many copies of its (id, point) as it did when it was
	// logged, so it finds its point, and the contents and data space equal
	// a one-by-one replay's. Only the layout differs, which is free: the
	// checkpoint below, not the WAL, is the new generation's recovery base.
	sn := r.sn
	var pts []vec.Point
	var ids []uint32
	var dels []mutOp
	for _, op := range r.deltas {
		if op.kind == walKindDelete {
			dels = append(dels, op)
		} else {
			pts = append(pts, op.pts...)
			ids = append(ids, op.ids...)
		}
	}
	if len(pts) > 0 {
		if err := t.applyInsertBatch(s, sn, pts, ids); err != nil {
			return fmt.Errorf("core: reoptimize delta replay: %w", err)
		}
	}
	for _, op := range dels {
		found, err := t.applyDelete(s, sn, op.pts[0], op.ids[0])
		if err == nil && !found {
			err = fmt.Errorf("deleted point %d not found", op.ids[0])
		}
		if err != nil {
			return fmt.Errorf("core: reoptimize delta replay: %w", err)
		}
	}
	if err := t.sto.Err(); err != nil {
		return err
	}
	if err := t.writeDirectory(sn); err != nil {
		return err
	}
	if t.wal != nil {
		var err error
		if sn.gen.ckpt, err = store.CreateWAL(t.sto.Backend(), ckptLogName(sn.gen.n)); err != nil {
			return err
		}
		if err := t.checkpointCommit(sn); err != nil {
			return err
		}
	}
	t.publish(sn)
	if t.wal != nil {
		// The checkpoint covered every buffered record.
		return t.wal.Reset()
	}
	return nil
}

// retire removes the generation g a swap replaced, on the swap's own
// goroutine, so every file mutation stays on the write path (a shard
// replica rebuild relies on that). g's write side waits only for the
// queries pinned to g; then g's files go, and under t.mu the directory,
// which the swap did not shrink under g's queries, is trimmed.
// A failed removal or trim is the store's sticky error, which the next
// write reports.
func (t *Tree) retire(g *generation) {
	g.readers.Lock()
	_ = t.sweep(t.load().gen.n)
	g.readers.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if live := t.load().dirBlocks; t.dirFile.Blocks() > live {
		_ = t.dirFile.Truncate(live)
	}
}

// repairOne rewrites one quarantined live page from its exact shadow
// and publishes the result. Repair calls it until no page is left; every
// reoptimize step calls it once, a bounded amount of quarantine
// draining. Returns whether a page was repaired.
func (t *Tree) repairOne(s *store.Session) (bool, error) {
	if len(t.QuarantinedPages()) == 0 {
		return false, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sn := t.load().clone()
	for i := range sn.entries {
		if sn.free[i] || !sn.gen.isQuarantined(int(sn.entries[i].QPos)) {
			continue
		}
		e := sn.entries[i]
		if int(e.Bits) == quantize.ExactBits {
			return false, unrecoverablePage(int(e.QPos), i)
		}
		pts, ids, err := t.readPagePoints(s, sn, i)
		if err != nil {
			return false, err
		}
		t.rewritePage(s, sn, i, pts, ids, int(e.Bits))
		if err := t.sto.Err(); err != nil {
			return false, err
		}
		if err := t.writeDirectory(sn); err != nil {
			return false, err
		}
		t.publish(sn)
		metricRepairedPages.Inc()
		return true, nil
	}
	return false, nil
}

// Checkpoint makes the current state durable and restarts the mutation
// log: data files are fsynced, a checkpoint record (embedding the
// directory and data-file extents) is appended to the checkpoint log and
// fsynced, and the WAL restarts empty. A no-op without WAL mode.
func (t *Tree) Checkpoint() error {
	if t.wal == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpoint(t.load())
}

// checkpoint persists sn as the recovery base and resets the WAL.
// Callers hold t.mu (or otherwise exclude writers), so the (snapshot,
// extents, LSN watermark) triple is consistent.
func (t *Tree) checkpoint(sn *snapshot) error {
	if err := t.checkpointCommit(sn); err != nil {
		return err
	}
	return t.wal.Reset()
}

// checkpointCommit writes and fsyncs the checkpoint record without
// resetting the WAL — the durable commit point. Split from checkpoint so
// the reoptimize swap can roll back cleanly on failure: until the record
// is durable nothing irreversible has happened, and the WAL reset
// afterwards is safe in any outcome (replay filters LSNs the checkpoint
// covers).
func (t *Tree) checkpointCommit(sn *snapshot) error {
	if err := t.sto.Backend().Sync(); err != nil {
		return fmt.Errorf("core: checkpoint sync: %w", err)
	}
	rec := checkpointRecord{
		gen:       sn.gen.n,
		lsn:       t.wal.AppendedLSN(),
		n:         sn.n,
		qBlocks:   sn.gen.q.Blocks(),
		eBlocks:   sn.gen.e.Blocks(),
		dataSpace: sn.dataSpace,
		entries:   sn.entries,
	}
	lsn := sn.gen.ckpt.Append(0, encodeCheckpoint(rec, t.dim))
	if err := sn.gen.ckpt.Commit(lsn); err != nil {
		return fmt.Errorf("core: checkpoint commit: %w", err)
	}
	return nil
}
