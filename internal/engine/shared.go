package engine

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/store"
)

// Scan-sharing execution (WithScanSharing): instead of one worker
// driving one monolithic query, a single coordinator multiplexes up to
// shareWindow in-flight queries as resumable cursors and advances them
// together, one index.SharedScan.Round at a time. The round — planning
// the union of the queries' wanted pages, reading each span once through
// a leader query's session and offering every page to all of them — is
// the index's own executor, the same one a direct query runs; the
// coordinator owns what surrounds it: admission from the queue,
// cancellation at round boundaries, bounded restarts of cursors a
// reorganization invalidated (index.ErrStaleScan), contained panics
// (ErrPanicked) and the busy-lane accounting.
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
	job      job
	s        *store.Session
	cur      index.Cursor
	lane     int // busy-ledger lane (round-robin, models one disk per worker)
	start    time.Time
	restarts int
	finished bool
	panicked bool
}

// coordinator is the scan-sharing main loop; it replaces the worker pool.
func (e *Engine) coordinator() {
	defer e.wg.Done()
	var active []*sharedQuery
	var cursors []index.Cursor
	open := true
	lane := 0
	for open || len(active) > 0 {
		active = e.admit(active, &open, &lane)
		if len(active) == 0 {
			continue
		}
		active, cursors = e.round(active, cursors[:0])
		// Yield between rounds for the same reason workers yield between
		// queries: warmed rounds run without preemption points.
		runtime.Gosched()
	}
}

// admit refills the active set from the queue up to the share window,
// blocking only when there is nothing in flight at all.
func (e *Engine) admit(active []*sharedQuery, open *bool, lane *int) []*sharedQuery {
	for *open && len(active) < e.shareWindow {
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
		if sq := e.startShared(j, *lane%e.workers); sq != nil {
			active = append(active, sq)
		}
		*lane++
	}
	return active
}

// startShared prepares one admitted query: pooled session, optional
// trace, context, cursor. Returns nil when the query already finished
// (cursor construction panicked).
func (e *Engine) startShared(j job, lane int) *sharedQuery {
	s := e.sessions.Get().(*store.Session)
	s.Reset()
	sq := &sharedQuery{job: j, s: s, lane: lane, start: time.Now()}
	q := j.q
	if q.Trace {
		j.res.Trace = obs.NewQueryTrace(q.Kind.String())
		cfg := e.sto.Config()
		j.res.Trace.SetCosts(cfg.Seek, cfg.Xfer)
		s.SetObserver(j.res.Trace)
	}
	if q.Ctx != nil {
		s.SetContext(q.Ctx)
	}
	if !e.begin(sq) {
		return nil
	}
	return sq
}

// begin starts the query's cursor, converting a panic into the query's
// failure so a poisoned query cannot kill the coordinator (which would
// wedge every other in-flight query). Reports whether the cursor exists;
// on false the query is finished.
func (e *Engine) begin(sq *sharedQuery) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(sq, fmt.Errorf("%w: %s query: %v", ErrPanicked, sq.job.q.Kind, r))
		}
	}()
	q := sq.job.q
	switch q.Kind {
	case KNN:
		ap := q.approx()
		if ap.Enabled() {
			e.approxQs.Inc()
		}
		sq.cur = e.scan.KNN(sq.s, q.Point, q.K, ap)
	case Range:
		sq.cur = e.scan.Range(sq.s, q.Point, q.Eps)
	default:
		sq.cur = e.scan.Window(sq.s, q.Window)
	}
	return true
}

// fail finishes the query with err; a panic leaves its session unpooled.
func (e *Engine) fail(sq *sharedQuery, err error) {
	if errors.Is(err, ErrPanicked) {
		sq.panicked = true
		e.panics.Inc()
	}
	sq.job.res.Neighbors = nil
	sq.job.res.Err = err
	e.finishShared(sq)
}

// finishShared finalizes one query exactly like the share-nothing run
// path: sticky session error check, wall/stats/simulated time, metrics,
// busy-lane accounting, session back to the pool (unless panicked).
func (e *Engine) finishShared(sq *sharedQuery) {
	if sq.finished {
		return
	}
	sq.finished = true
	if sq.cur != nil {
		sq.cur.Close()
	}
	res := sq.job.res
	if res.Err == nil {
		res.Err = sq.s.Err()
	}
	res.Wall = time.Since(sq.start)
	res.Stats = sq.s.Stats
	res.SimTime = sq.s.Time()
	e.account(sq.lane, res)
	if !sq.panicked {
		e.sessions.Put(sq.s)
	}
	sq.job.done.Done()
}

// round finishes the canceled queries, runs one index round over the
// others and settles every query the round ended. Returns the still-live
// queries and the cursor buffer for reuse.
func (e *Engine) round(active []*sharedQuery, cursors []index.Cursor) ([]*sharedQuery, []index.Cursor) {
	for _, sq := range active {
		if q := sq.job.q; q.Ctx != nil && q.Ctx.Err() != nil {
			e.fail(sq, fmt.Errorf("%w: %w", ErrCanceled, q.Ctx.Err()))
			continue
		}
		cursors = append(cursors, sq.cur)
	}
	if len(cursors) > 0 {
		pages, serves := e.scan.Round(cursors)
		e.sharedRounds.Inc()
		e.sharedFetched.Add(int64(pages))
		e.sharedServes.Add(int64(serves))
	}
	live := active[:0]
	for _, sq := range active {
		if !sq.finished && (!sq.cur.Done() || e.settle(sq)) {
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
		if err != nil {
			e.fail(sq, err)
			return false
		}
		sq.job.res.Neighbors = nbs
		e.finishShared(sq)
		return false
	}
	sq.restarts++
	if sq.restarts > e.maxRestarts {
		e.sharedExhausted.Inc()
		e.fail(sq, fmt.Errorf("%w: %w", ErrTooManyRestarts, err))
		return false
	}
	e.sharedRestarts.Inc()
	sq.cur.Close()
	sq.cur = nil
	return e.begin(sq)
}
