package core

import (
	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vec"
)

// This file adapts the tree's query cursors (knnCursor in search.go,
// scanCursor in range.go) to the scan-sharing protocol of
// internal/index: each query suspends at its quantized-page fetch
// boundary, the engine's coordinator merges the wanted pages of every
// in-flight query into one deduplicated read plan per round, and each
// fetched page is decoded once and offered to all attached cursors. The
// same cursors run alone under execute (exec.go).
//
// Safety rests on two properties of the tree's concurrency model:
//
//   - Page positions are written out of place: within one reorganization
//     generation the bytes at a quantized-page position never change, so
//     a page fetched for one query's epoch is byte-identical for every
//     other pinned epoch that still owns the position (cursors map
//     positions through their own snapshot and decline stale ones).
//   - Reorganization excludes readers via the world lock and bumps the
//     generation. Step and FetchRun take the read lock per call and
//     re-validate the generation, so no cursor holds the lock across a
//     coordinator round (a held read lock would deadlock against a
//     writer once the lock queue forces new readers to wait). A failed
//     validation surfaces index.ErrStaleScan and the coordinator
//     restarts the query on a fresh cursor. Run alone, a query holds the
//     read lock throughout and calls the unlocked bodies instead, so it
//     never sees ErrStaleScan.
//
// Result equivalence with execution alone is argued at each cursor and
// pinned by the shared_test.go equivalence suite.

var _ index.SharedScanner = (*Tree)(nil)
var _ index.ApproxSharedScan = (*sharedScan)(nil)

// NewSharedScan returns a scan-sharing handle over the tree. The handle
// owns the round-scoped decode scratch for shared pages, so it must be
// confined to one coordinator goroutine.
func (t *Tree) NewSharedScan() index.SharedScan {
	return &sharedScan{t: t}
}

type sharedScan struct {
	t   *Tree
	dec pageDecoder // decode-once buffer for the current shared page
}

func (ss *sharedScan) Layout() index.SharedLayout {
	sn := ss.t.load()
	return index.SharedLayout{
		PageBlocks: ss.t.opt.QPageBlocks,
		NumPages:   len(sn.entryAt),
	}
}

func (ss *sharedScan) Gen() uint64 { return ss.t.reoptGen.Load() }

// KNN begins one resumable k-NN query charged to s.
func (ss *sharedScan) KNN(s *store.Session, q vec.Point, k int) index.Cursor {
	return ss.KNNApprox(s, q, k, index.Approx{})
}

// KNNApprox begins one resumable k-NN query under the given
// approximation knob: once the knob's stopping rule fires the cursor
// drains its candidate refinements and stops wanting pages. A zero (or
// MinRecall = 1) knob is bit-identical to KNN.
func (ss *sharedScan) KNNApprox(s *store.Session, q vec.Point, k int, ap index.Approx) index.Cursor {
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	return t.beginKNN(s, scratchFor(s), q, k, ap)
}

// Range begins one resumable range query charged to s.
func (ss *sharedScan) Range(s *store.Session, q vec.Point, eps float64) index.Cursor {
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	return t.beginRange(s, scratchFor(s), q, eps)
}

// Window begins one resumable window query charged to s.
func (ss *sharedScan) Window(s *store.Session, w vec.MBR) index.Cursor {
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	return t.beginWindow(s, scratchFor(s), w)
}

// FetchRun reads quantized pages [first, last] through the leader's
// session (see fetchRun), after validating the generation under the
// world read lock.
func (ss *sharedScan) FetchRun(s *store.Session, gen uint64, first, last int, wanted func(pos int) bool,
	deliver func(pg *index.SharedPage), degraded func(pos int)) error {
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	if t.reoptGen.Load() != gen {
		return index.ErrStaleScan
	}
	_, err := t.fetchRun(s, &ss.dec, first, last, wanted, deliver, degraded)
	return err
}

// lockedStep runs one coordinator-driven cursor step under the world
// read lock, after checking that no reorganization invalidated the
// cursor's pinned epoch since it began (gen).
func (t *Tree) lockedStep(gen uint64, step func() (bool, error)) (bool, error) {
	t.world.RLock()
	defer t.world.RUnlock()
	if t.reoptGen.Load() != gen {
		return false, index.ErrStaleScan
	}
	return step()
}
