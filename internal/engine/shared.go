package engine

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/index"
	"repro/internal/vec"
)

// Scan-sharing execution (WithScanSharing): instead of one worker
// driving one monolithic query, a single coordinator multiplexes up to
// workers in-flight queries as resumable cursors and advances them
// together, one index.SharedScan.Round at a time. The round — planning
// the union of the queries' wanted pages, reading each span once through
// a leader query's session and offering every page to all of them — is
// the index's own executor, the same one a direct query runs; the
// coordinator owns what surrounds it: admission from the queue,
// cancellation at round boundaries, bounded restarts of cursors a
// reorganization invalidated (index.ErrStaleScan) and contained panics
// (ErrPanicked). Each query opens and finishes like a worker's (open,
// finish), on the busy lane its admission dealt it.
//
// Per-query semantics survive sharing: results are identical to
// share-nothing execution, Query.Ctx cancellation is honored at every
// round boundary (and a canceled query never leads a read), damaged pages
// take the same recovery path, and a panic in one cursor fails only that
// query.

// maxSharedRestarts bounds how many times one query is restarted after
// reorganizations invalidated its cursor before it fails with
// ErrStaleScan — progress insurance against a pathological writer that
// reorganizes faster than queries complete.
const maxSharedRestarts = 8

// sharedQuery is one in-flight query of the scan-sharing coordinator.
type sharedQuery struct {
	flight
	cur      index.Cursor
	restarts int
}

// coordinator is the scan-sharing main loop; it replaces the worker pool.
func (e *Engine) coordinator() {
	defer e.wg.Done()
	var active []*sharedQuery
	var cursors []index.Cursor
	open := true
	for open || len(active) > 0 {
		active = e.admit(active, &open)
		if len(active) == 0 {
			continue
		}
		active, cursors = e.round(active, cursors[:0])
		// Yield between rounds for the same reason workers yield between
		// queries: warmed rounds run without preemption points.
		runtime.Gosched()
	}
}

// admit refills the active set from the queue up to the worker count,
// blocking only when there is nothing in flight at all.
func (e *Engine) admit(active []*sharedQuery, open *bool) []*sharedQuery {
	for *open && len(active) < e.workers {
		var j job
		var ok bool
		if len(active) == 0 {
			j, ok = <-e.queue // idle: block until work or Close
		} else {
			select {
			case j, ok = <-e.queue:
			default:
				return active // don't stall in-flight queries on admission
			}
		}
		if !ok {
			*open = false
			return active
		}
		e.queueDepth.Add(-1)
		sq := &sharedQuery{flight: e.open(j)}
		if e.begin(sq) {
			active = append(active, sq)
		}
	}
	return active
}

// begin starts the query's cursor, converting a panic into the query's
// failure so a poisoned query cannot kill the coordinator (which would
// wedge every other in-flight query). Reports whether the cursor exists;
// on false the query is finished.
func (e *Engine) begin(sq *sharedQuery) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.end(sq, nil, fmt.Errorf("%w: %s query: %v", ErrPanicked, sq.q.Kind, r))
		}
	}()
	q := sq.q
	switch q.Kind {
	case KNN:
		if q.MinRecall > 0 {
			e.approxQs.Inc()
		}
		sq.cur = e.scan.KNN(sq.s, q.Point, q.K, q.MinRecall)
	case Range:
		sq.cur = e.scan.Range(sq.s, q.Point, q.Eps)
	default:
		sq.cur = e.scan.Window(sq.s, q.Window)
	}
	return true
}

// end finishes the query with its answer or the error that ended it.
func (e *Engine) end(sq *sharedQuery, nbs []vec.Neighbor, err error) {
	sq.res.Neighbors, sq.res.Err = nbs, err
	e.finish(sq.flight)
}

// round finishes the canceled queries, runs one index round over the
// others and settles every query the round ended. Returns the still-live
// queries and the cursor buffer for reuse.
func (e *Engine) round(active []*sharedQuery, cursors []index.Cursor) ([]*sharedQuery, []index.Cursor) {
	live := active[:0]
	for _, sq := range active {
		if ctx := sq.q.Ctx; ctx != nil && ctx.Err() != nil {
			e.end(sq, nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err()))
			continue
		}
		live = append(live, sq)
		cursors = append(cursors, sq.cur)
	}
	if len(cursors) > 0 {
		pages, serves := e.scan.Round(cursors)
		e.sharedRounds.Inc()
		e.sharedFetched.Add(int64(pages))
		e.sharedServes.Add(int64(serves))
	}
	active, live = live, live[:0]
	for _, sq := range active {
		if !sq.cur.Done() || e.settle(sq) {
			live = append(live, sq)
		}
	}
	clear(cursors)
	return live, cursors
}

// settle finalizes a query whose cursor ended, restarting it on a fresh
// cursor when a reorganization invalidated the old one (bounded by
// maxRestarts). Reports whether the query is still live.
func (e *Engine) settle(sq *sharedQuery) bool {
	nbs, err := sq.cur.Results()
	if !errors.Is(err, index.ErrStaleScan) {
		e.end(sq, nbs, err)
		return false
	}
	sq.restarts++
	if sq.restarts > e.maxRestarts {
		e.sharedExhausted.Inc()
		e.end(sq, nil, fmt.Errorf("%w: %w", ErrTooManyRestarts, err))
		return false
	}
	e.sharedRestarts.Inc()
	sq.cur = nil
	return e.begin(sq)
}
