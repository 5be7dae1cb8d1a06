package core

import (
	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vec"
)

// This file exposes the tree's query cursors (knnCursor in search.go,
// scanCursor in range.go) to the engine's scan-sharing coordinator: it
// begins cursors through a SharedScan handle and advances up to its share
// window of them per Round — the same round a direct query runs over its
// one cursor (exec.go). Each fetched page is decoded once and offered to
// every attached cursor.
//
// Safety rests on two properties of the tree's concurrency model:
//
//   - Page positions are written out of place: within one reorganization
//     generation the bytes at a quantized-page position never change, so
//     a page fetched for one query's epoch is byte-identical for every
//     other pinned epoch that still owns the position (cursors map
//     positions through their own snapshot and decline stale ones).
//   - Reorganization excludes readers via the world lock and bumps the
//     generation. Round holds the read lock for one round only, never
//     across rounds (a read lock held across rounds would deadlock
//     against a writer once the lock queue forces new readers to wait),
//     and the round ends a cursor begun at an older generation with
//     index.ErrStaleScan; the coordinator restarts it on a fresh cursor.
//     A direct query holds the read lock throughout, so it never sees
//     ErrStaleScan.
//
// Result equivalence with execution alone is argued at each cursor and
// pinned by the shared_test.go equivalence suite.

var _ index.SharedScanner = (*Tree)(nil)

// NewSharedScan returns a scan-sharing handle over the tree. The handle
// owns the round scratch, so it must be confined to one coordinator
// goroutine.
func (t *Tree) NewSharedScan() index.SharedScan {
	ss := &sharedScan{t: t}
	ss.rs.init()
	return ss
}

type sharedScan struct {
	t  *Tree
	rs roundScratch
	cs []cursor
}

// KNN begins one resumable k-NN query charged to s under the given
// approximation knob: once the knob's stopping rule fires the cursor
// drains its candidate refinements and stops wanting pages. A zero (or
// MinRecall = 1) knob is exact search.
func (ss *sharedScan) KNN(s *store.Session, q vec.Point, k int, ap index.Approx) index.Cursor {
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

// Round runs one fetch round over the cursors under the world read lock.
func (ss *sharedScan) Round(cs []index.Cursor) (pages, serves int) {
	ss.cs = ss.cs[:0]
	for _, c := range cs {
		ss.cs = append(ss.cs, c.(cursor))
	}
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	t.round(&ss.rs, ss.cs)
	return ss.rs.pages, ss.rs.serves
}
