package core

import (
	"errors"

	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vec"
)

// ErrStaleIterator is reported by an NNIterator whose pinned snapshot was
// invalidated by a Reoptimize: compaction rewrites the data files in
// place, so the iterator's page positions no longer mean anything.
var ErrStaleIterator = errors.New("core: iterator invalidated by Reoptimize")

// NNIterator enumerates the neighbors of a query point in increasing
// distance order, on demand — the incremental ranking of Hjaltason and
// Samet (the paper's reference [13]), running over the IQ-tree's three
// levels. Unlike KNN it needs no a-priori k: callers pull neighbors until
// satisfied (e.g. distance browsing, joins). It is the k-NN cursor
// without a result bound, run by the same executor, so it shares the
// time-optimized page batching and the degraded reads of quarantined
// pages with KNN.
//
// The iterator pins the directory snapshot current at creation, so it is
// safe to interleave Next calls with concurrent inserts and deletes —
// the iteration keeps enumerating the pinned epoch. Only Reoptimize
// invalidates it (see ErrStaleIterator). The iterator itself is not safe
// for concurrent use from multiple goroutines.
type NNIterator struct {
	t   *Tree
	gen uint64 // reoptGen at creation
	s   *store.Session
	sc  queryScratch // iterator-owned: Next may interleave with other queries on the session
	err error        // first read failure; ends the iteration
}

// NewNNIterator starts an incremental nearest-neighbor ranking for q over
// the tree's current snapshot. All simulated I/O and CPU is charged to s.
func (t *Tree) NewNNIterator(s *store.Session, q vec.Point) *NNIterator {
	it := &NNIterator{t: t, gen: t.reoptGen.Load(), s: s}
	it.sc.init()
	tr := t.traceOf(s)
	tr.SetLabel("nn iterator")
	it.sc.startKNN(t, s, tr, q, 0, index.Approx{})
	return it
}

// Err returns the first read failure encountered by the iterator, or nil.
// After Next returns ok=false, callers distinguishing exhaustion from
// failure must check it (the bufio.Scanner protocol).
func (it *NNIterator) Err() error { return it.err }

// Next returns the next neighbor in increasing distance order, or
// ok=false when the database is exhausted or a read failed (see Err).
func (it *NNIterator) Next() (Neighbor, bool) {
	t := it.t
	t.world.RLock()
	defer t.world.RUnlock()
	if it.err != nil {
		return Neighbor{}, false
	}
	if t.reoptGen.Load() != it.gen {
		it.err = ErrStaleIterator
		return Neighbor{}, false
	}
	if it.err = t.execute(&it.sc, &it.sc.knn); it.err != nil {
		return Neighbor{}, false
	}
	return it.sc.search.emit()
}
