package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// Incremental reoptimization (DESIGN.md §13). The stop-the-world rebuild
// is decomposed into steps that overlap with queries and updates:
//
//	begin:  pin the current snapshot and start capturing logical deltas
//	        (under t.mu, so the pin and the capture marker are atomic
//	        with respect to writers), then plan the new layout lock-free
//	        from the pinned snapshot and create generation gen+1 files.
//	middle: write one planned page into the new generation's files —
//	        invisible to queries, which keep serving the old generation —
//	        and repair at most one quarantined live page.
//	final:  under world.Lock (the only excluding step), swap the file
//	        pointers to the new generation, re-apply the captured deltas
//	        through the normal apply path, publish, and (in WAL mode)
//	        checkpoint so the swap is the durable commit point. Old
//	        generation files are removed afterwards.
//
// Snapshot correctness: queries pin epochs of the old generation and
// hold world.RLock for their whole duration, so the final swap cannot
// run under them; once it has run, reoptGen invalidates outstanding
// shared-scan cursors (index.ErrStaleScan) instead of letting them read
// repositioned pages.

var (
	metricReoptSteps = obs.Default().Counter("reopt.steps")
	metricReoptPages = obs.Default().Counter("reopt.pages_requantized")
)

// reoptState is one in-flight incremental reoptimization. The stepper
// (serialized by t.reoptMu) owns every field except deltas, which
// writers append to under t.mu.
type reoptState struct {
	plan    []planPage
	next    int             // next plan index to write
	entries []page.DirEntry // written pages, new-generation positions
	grids   []quantize.Grid
	deltas  []mutOp // mutations since the pin; guarded by t.mu

	gen          uint32 // the generation being built
	qFile, eFile *store.File

	n         int
	dataSpace vec.MBR
	model     costmodel.Model
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
	metricReoptSteps.Inc()
	if t.reopt == nil {
		return false, t.reoptBegin()
	}
	if _, err := t.repairOne(s); err != nil {
		return false, err
	}
	r := t.reopt
	if r.next < len(r.plan) {
		pp := r.plan[r.next]
		e, g := t.writePlanPage(r.qFile, r.eFile, pp)
		if err := t.sto.Err(); err != nil {
			t.reoptAbort()
			return false, err
		}
		r.entries = append(r.entries, e)
		r.grids = append(r.grids, g)
		r.next++
		metricReoptPages.Inc()
		return false, nil
	}
	if err := t.reoptFinish(s); err != nil {
		return false, err
	}
	return true, nil
}

// reoptBegin pins the current state and computes the new layout. Caller
// holds t.reoptMu.
func (t *Tree) reoptBegin() error {
	t.world.RLock()
	defer t.world.RUnlock()
	// Pin and arm delta capture atomically with respect to writers.
	t.mu.Lock()
	pinned := t.load()
	r := &reoptState{gen: t.gen + 1}
	t.reopt = r
	t.mu.Unlock()
	// Plan lock-free against the pinned snapshot: copy-on-write keeps
	// its pages readable while writers publish newer epochs (those
	// mutations arrive as deltas).
	pts, ids, err := t.allPoints(pinned)
	if err != nil {
		t.reoptAbort()
		return err
	}
	if len(pts) == 0 {
		t.reoptAbort()
		return ErrEmptyTree
	}
	msn := &snapshot{n: len(pts), dataSpace: vec.MBROf(pts), model: pinned.model}
	// The pinned data space may exceed the union of live MBRs (it never
	// shrinks); keep it so replanned decisions match the live model's.
	msn.dataSpace.ExtendMBR(pinned.dataSpace)
	msn.model.N = len(pts)
	msn.model.DataSpace = msn.dataSpace
	b := newBuilder(t, msn, pts)
	b.ids = ids
	r.plan = b.plan(b.frontier())
	r.n = len(pts)
	r.dataSpace = msn.dataSpace
	r.model = msn.model
	if r.qFile, err = t.sto.NewFile(genName(QFileName, r.gen)); err != nil {
		t.reoptAbort()
		return err
	}
	if r.eFile, err = t.sto.NewFile(genName(EFileName, r.gen)); err != nil {
		t.reoptAbort()
		return err
	}
	return nil
}

// reoptAbort tears down an in-flight run: capture stops, partially
// written next-generation files are removed. Caller holds t.reoptMu.
func (t *Tree) reoptAbort() {
	t.mu.Lock()
	r := t.reopt
	t.reopt = nil
	t.mu.Unlock()
	if r == nil {
		return
	}
	if r.qFile != nil {
		t.sto.Remove(r.qFile.Name())
	}
	if r.eFile != nil {
		t.sto.Remove(r.eFile.Name())
	}
}

// reoptFinish swaps the tree to the freshly built generation. The only
// step that excludes queries and writers; in WAL mode the generation's
// first checkpoint record is the durable commit point of the swap (a
// crash before it recovers the old generation plus the WAL, a crash
// after it the new one).
func (t *Tree) reoptFinish(s *store.Session) error {
	t.world.Lock()
	defer t.world.Unlock()
	r := t.reopt

	sn := &snapshot{
		n:         r.n,
		dataSpace: r.dataSpace.Clone(),
		model:     r.model,
	}
	sn.model.DataSpace = sn.dataSpace
	for i, e := range r.entries {
		idx := sn.appendEntry()
		sn.entries[idx] = e
		sn.grids[idx] = r.grids[i]
		sn.setOwner(int(e.QPos), idx)
	}

	// Swap the file pointers first: delta re-application and every later
	// write lands in the new generation. Writers are excluded (they need
	// world.RLock), so the swap is race-free.
	oldQ, oldE, oldGen := t.qFile, t.eFile, t.gen
	oldCkpt := t.ckptLog
	t.qFile, t.eFile, t.gen = r.qFile, r.eFile, r.gen
	t.mu.Lock()
	t.reopt = nil // stop delta capture; r.deltas is complete
	t.mu.Unlock()
	rollback := func() {
		t.qFile, t.eFile, t.gen = oldQ, oldE, oldGen
		t.ckptLog = oldCkpt
		t.sto.Remove(r.qFile.Name())
		t.sto.Remove(r.eFile.Name())
	}

	for _, op := range r.deltas {
		if err := t.applyMutOp(s, sn, op); err != nil {
			rollback()
			return fmt.Errorf("core: reoptimize delta replay: %w", err)
		}
	}
	if err := t.rewriteDirectory(sn); err != nil {
		rollback()
		return err
	}
	if err := t.sto.Err(); err != nil {
		rollback()
		return err
	}
	if t.wal != nil {
		nl, err := store.CreateWAL(t.sto.Backend(), ckptLogName(t.gen))
		if err != nil {
			rollback()
			return err
		}
		t.ckptLog = nl
		if err := t.checkpointCommit(sn); err != nil {
			// The new checkpoint log never became authoritative; removing
			// it makes the old generation's log the newest again.
			t.sto.Remove(nl.Name())
			rollback()
			return err
		}
	}
	// Quarantined positions referred to the old generation's file.
	t.clearQuarantine()
	t.publish(sn)
	t.reoptGen.Add(1)
	// The old generation is garbage now. In WAL mode the new checkpoint
	// is durable, so recovery no longer needs these files.
	t.sto.Remove(oldQ.Name())
	t.sto.Remove(oldE.Name())
	if oldCkpt != nil && t.wal != nil {
		t.sto.Remove(oldCkpt.Name())
	}
	if t.wal != nil {
		// Best-effort: reset the mutation log tail (checkpointCommit
		// already covered every buffered record).
		if err := t.wal.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// repairOne rewrites one quarantined live page from its exact shadow
// and publishes the result. Repair calls it until no page is left; every
// reoptimize step calls it once, a bounded amount of quarantine
// draining. Returns whether a page was repaired.
func (t *Tree) repairOne(s *store.Session) (bool, error) {
	if len(t.QuarantinedPages()) == 0 {
		return false, nil
	}
	t.world.RLock()
	defer t.world.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	sn := t.load().clone()
	for i := range sn.entries {
		if sn.free[i] || !t.isQuarantined(int(sn.entries[i].QPos)) {
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
		if err := t.rewriteDirectory(sn); err != nil {
			return false, err
		}
		if err := t.sto.Err(); err != nil {
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
	t.world.RLock()
	defer t.world.RUnlock()
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
		gen:       t.gen,
		lsn:       t.wal.AppendedLSN(),
		n:         sn.n,
		qBlocks:   t.qFile.Blocks(),
		eBlocks:   t.eFile.Blocks(),
		dataSpace: sn.dataSpace,
		entries:   sn.entries,
	}
	lsn := t.ckptLog.Append(0, encodeCheckpoint(rec, t.dim))
	if err := t.ckptLog.Commit(lsn); err != nil {
		return fmt.Errorf("core: checkpoint commit: %w", err)
	}
	return nil
}
