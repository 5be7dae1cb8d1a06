package core

import (
	"repro/internal/kernel"
	"repro/internal/pagesched"
	"repro/internal/store"
	"repro/internal/vec"
)

// queryScratch is the per-session reusable state of the query paths:
// kernel arenas, the k-NN search state, both cursors, the round's
// buffers, the range/window scan buffers, and the access-probability
// scratch. It rides on the session's scratch slot (surviving
// Session.Reset), so pooled sessions — the engine's workers — reach a
// zero-allocation steady state on the KNN hot path. Like the session
// itself, it is single-goroutine state.
type queryScratch struct {
	arena kernel.Arena      // codes + distance/window tables
	pts   kernel.PointArena // decoded exact points (KNN refinement)
	prob  pagesched.ProbScratch

	search nnSearch
	sorter entrySorter

	// The cursors (one query at a time per session) and the round that
	// runs them.
	knn   knnCursor
	scan  scanCursor
	round roundScratch

	// Range/window scan state.
	positions []int
	posEntry  map[int]int
	delivered map[int]struct{}
	need      []int
	eps       epsFilter
	win       windowFilter

	// Batch-kernel buffers of the range/window page classifiers.
	bounds kernel.PageBounds
	hits   []bool
}

// scratchFor returns the session's query scratch, creating and attaching
// it on first use.
func scratchFor(s *store.Session) *queryScratch {
	if sc, ok := s.Scratch().(*queryScratch); ok {
		return sc
	}
	sc := &queryScratch{}
	sc.init()
	s.SetScratch(sc)
	return sc
}

// init prepares a zero scratch for use.
func (sc *queryScratch) init() {
	sc.posEntry = make(map[int]int)
	sc.delivered = make(map[int]struct{})
	sc.search.sc = sc
	sc.search.exactCache = make(map[int32]exactPage)
	sc.search.exactSkip = make(map[int32]bool)
	sc.round.init()
}

// beginSearch re-initializes the scratch's k-NN state for one query,
// reusing every buffer at its high-water capacity.
func (sc *queryScratch) beginSearch(t *Tree, sn *snapshot, s *store.Session, q vec.Point, k int, tr *Trace, minRecall float64) *nnSearch {
	st := &sc.search
	st.t, st.sn, st.s, st.q, st.k, st.tr = t, sn, s, q, k, tr
	st.err = nil
	st.eps = 0
	if minRecall > 0 {
		st.eps = 1 - minRecall
	}
	st.apStopped = false
	n := len(sn.entries)
	st.minD = grow(st.minD, n)
	st.processed = grow(st.processed, n)
	clear(st.processed)
	st.sorted = st.sorted[:0]
	st.heap = st.heap[:0]
	st.res = st.res[:0]
	st.ub = st.ub[:0]
	st.wSum = grow(st.wSum, n)
	clear(st.wSum)
	st.wCnt = grow(st.wCnt, n)
	clear(st.wCnt)
	st.regionBuf = st.regionBuf[:0]
	clear(st.exactCache)
	clear(st.exactSkip)
	sc.pts.Reset()
	return st
}

// entrySorter orders directory entry indexes by MINDIST. It is a
// pre-boxed sort.Interface so the hot path can use sort.Sort without the
// closure allocation of sort.Slice; both run the same pdqsort, so the
// resulting permutation (ties included) is identical.
type entrySorter struct {
	minD []float64
	idx  []int32
}

func (s *entrySorter) Len() int           { return len(s.idx) }
func (s *entrySorter) Less(a, b int) bool { return s.minD[s.idx[a]] < s.minD[s.idx[b]] }
func (s *entrySorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// grow returns s resized to n elements, reallocating only when its
// capacity is short; reused elements keep their old values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
