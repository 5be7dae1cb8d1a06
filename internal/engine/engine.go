// Package engine is the parallel serving layer: a fixed pool of workers
// drains a query queue against one index.Index, each worker reusing a
// pooled store.Session (Reset between queries) so steady-state serving
// allocates no per-query session state.
//
// Concurrency contract: the access methods publish copy-on-write
// snapshots (see internal/core), so workers never block updaters and
// every query observes one consistent snapshot. The engine measures both
// wall-clock and simulated time per query; callers that model one disk
// per worker derive a makespan from the results (cmd/iqbench).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// ErrClosed is returned for queries submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is returned when the bounded queue stays full past the
// engine's queue wait: the engine sheds the query instead of letting
// callers pile up behind a saturated pool (see WithQueueWait).
var ErrOverloaded = errors.New("engine: overloaded, query shed")

// ErrCanceled marks a query abandoned because its context was done —
// either while waiting for queue space or at a page-fetch boundary
// inside the index. It aliases store.ErrCanceled so errors.Is works
// across the layers.
var ErrCanceled = store.ErrCanceled

// ErrInvalidQuery marks a query rejected at submission because its shape
// cannot be executed (nil point, non-positive k, inverted window, or an
// unknown kind). The query never reaches the pool.
var ErrInvalidQuery = errors.New("engine: invalid query")

// ErrPanicked marks a query whose index execution panicked. The panic is
// contained — the worker does not die — and surfaces typed so routing
// layers (internal/shard) can classify it as a replica-local fault and
// retry a sibling replica. It aliases index.ErrPanicked, which a fetch
// round reports for a contained cursor panic, so errors.Is works across
// the layers.
var ErrPanicked = index.ErrPanicked

// Kind selects the query type of a Query.
type Kind int

const (
	KNN Kind = iota
	Range
	Window
)

// Query is one unit of work for the engine.
type Query struct {
	Kind   Kind
	Point  vec.Point // KNN and Range center
	K      int       // KNN result count
	Eps    float64   // Range radius
	Window vec.MBR   // Window bounds
	Trace  bool      // collect a per-query plan trace (costs extra allocation)

	// MinRecall arms approximate KNN execution (KNN-only; 0 means
	// exact). MinRecall ∈ (0,1] is the target expected recall: the index
	// stops fetching pages once the modeled probability that any
	// unfetched page still improves the top-k drops below
	// ε = 1 − MinRecall. MinRecall = 1 is armed but bit-identical to
	// exact execution. On indexes without approximate support the query
	// runs exact.
	MinRecall float64

	// Ctx, when non-nil, bounds the query: a done context fails the
	// query with an error wrapping ErrCanceled — checked while waiting
	// for queue space and again at every page-fetch boundary inside the
	// index, so a canceled query stops paying I/O promptly.
	Ctx context.Context
}

// Validate checks the query's shape and that its point or window has
// dim dimensions, returning an error wrapping ErrInvalidQuery for
// queries that cannot be executed. Submission validates every query, so
// malformed work fails typed at the door instead of surfacing as an
// index panic — which routing layers would retry on every replica — or
// a silent empty result.
func (q Query) Validate(dim int) error {
	if q.MinRecall < 0 || q.MinRecall > 1 || q.MinRecall != q.MinRecall {
		return fmt.Errorf("%w: min recall %v outside [0, 1]", ErrInvalidQuery, q.MinRecall)
	}
	if q.Kind != KNN && q.MinRecall > 0 {
		return fmt.Errorf("%w: recall target on a %s query", ErrInvalidQuery, q.Kind)
	}
	switch q.Kind {
	case KNN:
		if q.Point == nil {
			return fmt.Errorf("%w: knn with nil point", ErrInvalidQuery)
		}
		if q.K <= 0 {
			return fmt.Errorf("%w: knn with k=%d", ErrInvalidQuery, q.K)
		}
	case Range:
		if q.Point == nil {
			return fmt.Errorf("%w: range with nil point", ErrInvalidQuery)
		}
		if q.Eps < 0 || q.Eps != q.Eps {
			return fmt.Errorf("%w: range with eps=%v", ErrInvalidQuery, q.Eps)
		}
	case Window:
		w := q.Window
		if len(w.Lo) == 0 || len(w.Lo) != len(w.Hi) {
			return fmt.Errorf("%w: window with %d/%d bounds", ErrInvalidQuery, len(w.Lo), len(w.Hi))
		}
		for i := range w.Lo {
			if w.Lo[i] > w.Hi[i] {
				return fmt.Errorf("%w: window inverted in dim %d", ErrInvalidQuery, i)
			}
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrInvalidQuery, int(q.Kind))
	}
	n := len(q.Point)
	if q.Kind == Window {
		n = len(q.Window.Lo)
	}
	if n != dim {
		return fmt.Errorf("%w: %d-d %s query, want %d-d", ErrInvalidQuery, n, q.Kind, dim)
	}
	return nil
}

// Result is the outcome of one Query.
type Result struct {
	Neighbors []vec.Neighbor
	Err       error
	Stats     store.Stats     // the query's simulated charges
	SimTime   float64         // simulated seconds (Stats under the store config)
	Wall      time.Duration   // wall-clock execution time on the worker
	Trace     *obs.QueryTrace // non-nil iff Query.Trace was set
}

// Engine is a worker-pool query executor over one index. Submit and
// SubmitBatch are safe for concurrent use from any number of goroutines;
// Close drains in-flight queries and stops the workers.
type Engine struct {
	sto       *store.Store
	idx       index.Index
	workers   int
	queueWait time.Duration // max wait for queue space; <= 0 sheds at once

	queue    chan job
	sessions sync.Pool
	wg       sync.WaitGroup

	// closeMu orders submissions against Close: intake holds the read
	// lock from the closed check through the channel send, and Close
	// flips closed under the write lock before closing the channels, so
	// a send on a closed channel is impossible — any intake that
	// observed closed=false finishes its send before Close can proceed.
	closeMu sync.RWMutex
	closed  atomic.Bool
	// closing flips before Close takes the write lock, so a health poll
	// never reports a replica ready while Close is already committed but
	// still blocked behind in-flight submissions or the drain (the write
	// lock can be held out for up to the queue wait). Both flags are
	// atomics read outside closeMu: Health must stay non-blocking while
	// a closer waits out a slow submission, and submissions racing Close
	// fail fast with ErrClosed instead of stalling behind the pending
	// writer.
	closing atomic.Bool

	// Write path (see write.go): one writer goroutine drains a dedicated
	// queue, coalescing insert bursts into batch applications.
	writesOn   bool
	mut        Mutator
	writeQueue chan writeJob

	reg        *obs.Registry
	queueDepth *obs.Gauge
	queries    *obs.Counter
	failures   *obs.Counter
	panics     *obs.Counter
	sheds      *obs.Counter
	cancels    *obs.Counter
	approxQs   *obs.Counter
	simLat     *obs.Histogram
	wallLat    *obs.Histogram

	writeQueueDepth *obs.Gauge
	writeCount      *obs.Counter
	writeBatches    *obs.Counter
	writeFailures   *obs.Counter
}

type job struct {
	q    Query
	res  *Result
	done *sync.WaitGroup
}

// Option customizes engine construction.
type Option func(*Engine)

// WithRegistry points the engine's metrics (engine.* names) at reg
// instead of a private registry — inject the process registry to fold
// serving metrics into one snapshot.
func WithRegistry(reg *obs.Registry) Option {
	return func(e *Engine) { e.reg = reg }
}

// WithQueueWait bounds how long a submission waits for space in the
// full queue before the engine sheds it with ErrOverloaded. Zero or a
// negative duration sheds immediately when the queue is full. The
// default is one second — far beyond any healthy queue dwell time for
// microsecond-scale queries, so only a genuinely wedged or saturated
// pool sheds.
func WithQueueWait(d time.Duration) Option {
	return func(e *Engine) { e.queueWait = d }
}

// New starts an engine with the given number of workers serving queries
// against idx, charging simulated costs to sessions of sto.
func New(sto *store.Store, idx index.Index, workers int, opts ...Option) *Engine {
	if workers <= 0 {
		panic(fmt.Sprintf("engine: workers must be positive, got %d", workers))
	}
	e := &Engine{
		sto:       sto,
		idx:       idx,
		workers:   workers,
		queueWait: time.Second,
		queue:     make(chan job, 4*workers),
	}
	for _, o := range opts {
		o(e)
	}
	if e.reg == nil {
		e.reg = &obs.Registry{}
	}
	e.queueDepth = e.reg.Gauge("engine.queue_depth")
	e.queries = e.reg.Counter("engine.queries")
	e.failures = e.reg.Counter("engine.failures")
	e.panics = e.reg.Counter("engine.panics")
	e.sheds = e.reg.Counter("engine.sheds")
	e.cancels = e.reg.Counter("engine.cancellations")
	e.approxQs = e.reg.Counter("engine.approx.queries")
	e.simLat = e.reg.Histogram("engine.sim_latency_seconds")
	e.wallLat = e.reg.Histogram("engine.wall_latency_seconds")
	e.sessions.New = func() any { return sto.NewSession() }
	if e.writesOn {
		if m, ok := idx.(Mutator); ok {
			e.mut = m
		}
	}
	if e.mut != nil {
		e.writeQueue = make(chan writeJob, 4*workers)
		e.writeQueueDepth = e.reg.Gauge("engine.write_queue_depth")
		e.writeCount = e.reg.Counter("engine.writes")
		e.writeBatches = e.reg.Counter("engine.write_batches")
		e.writeFailures = e.reg.Counter("engine.write_failures")
		e.wg.Add(1)
		go e.writer()
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Health is a point-in-time readiness snapshot of one engine, cheap
// enough for a routing layer (internal/shard) to poll per decision: a
// closed engine can never serve again, a deep queue signals saturation,
// and the failure counters distinguish a replica that answers from one
// that answers badly.
type Health struct {
	Closed     bool  // Close was called; every submission fails ErrClosed
	Closing    bool  // Close has started (set before the drain begins)
	Workers    int   // pool size
	QueueDepth int64 // jobs currently queued or waiting for queue space
	Queries    int64 // completed queries
	Failures   int64 // completed queries that carried an error
	Panics     int64 // contained index panics
	Sheds      int64 // queries shed with ErrOverloaded
	Cancels    int64 // queries abandoned via context cancellation
}

// Ready reports whether the engine can accept queries at all. A ready
// engine may still shed under load; Closed (and its precursor Closing —
// Close never un-happens) are the only permanent states.
func (h Health) Ready() bool { return !h.Closed && !h.Closing }

// Health returns the engine's current readiness snapshot. The counter
// fields are individually consistent atomic reads, not one cut across
// all of them — routing decisions tolerate that.
func (e *Engine) Health() Health {
	// Both flags are read outside closeMu on purpose: a health poll must
	// not block (or report stale readiness) while Close waits for the
	// write lock behind a slow submission's read lock.
	return Health{
		Closed:     e.closed.Load(),
		Closing:    e.closing.Load(),
		Workers:    e.workers,
		QueueDepth: e.queueDepth.Value(),
		Queries:    e.queries.Value(),
		Failures:   e.failures.Value(),
		Panics:     e.panics.Value(),
		Sheds:      e.sheds.Value(),
		Cancels:    e.cancels.Value(),
	}
}

// Registry returns the registry carrying the engine's metrics.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Submit executes one query and blocks until its result is ready. A
// query that never reaches the pool fails typed: ErrClosed after Close,
// ErrOverloaded when the queue stays full past the queue wait, or an
// error wrapping ErrCanceled when its context is done.
func (e *Engine) Submit(q Query) Result {
	var res Result
	var done sync.WaitGroup
	if err := e.enqueue(job{q: q, res: &res, done: &done}); err != nil {
		return Result{Err: err}
	}
	done.Wait()
	return res
}

// SubmitBatch executes all queries on the worker pool and blocks until
// every result is ready. Results are returned in query order regardless
// of completion order, so downstream aggregation is deterministic.
// Individual queries that cannot be enqueued carry their typed error
// (ErrClosed, ErrOverloaded, ErrCanceled) in their Result slot.
func (e *Engine) SubmitBatch(qs []Query) []Result {
	results := make([]Result, len(qs))
	var done sync.WaitGroup
	for i := range qs {
		if err := e.enqueue(job{q: qs[i], res: &results[i], done: &done}); err != nil {
			results[i].Err = err
		}
	}
	done.Wait()
	return results
}

// enqueue validates a query and queues its job (see intake).
func (e *Engine) enqueue(j job) error {
	if err := j.q.Validate(e.idx.Dim()); err != nil {
		return err
	}
	return intake(j.q.Ctx, e, e.queue, e.queueDepth, j.done, j)
}

// intake is the engine's one admission path, for the query queue and
// the write lane alike: it reserves a done slot, counts j in depth and
// sends it on lane. On a non-nil error — ErrClosed, ErrOverloaded, or
// one wrapping ErrCanceled — nothing stays reserved and j never runs.
// The read lock is held from the closed check through the send (see
// closeMu), which also bounds how long Close can block behind a full
// lane: at most the queue wait.
func intake[J any](ctx context.Context, e *Engine, lane chan<- J, depth *obs.Gauge, done *sync.WaitGroup, j J) error {
	// Fast path: once Close has started, fail before touching closeMu —
	// a writer waiting for the lock blocks new readers, so without this
	// check a submission racing Close would stall behind the drain
	// instead of failing typed.
	if e.closing.Load() {
		return ErrClosed
	}
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() || e.closing.Load() {
		return ErrClosed
	}
	var ctxDone <-chan struct{} // nil (never ready) without a context
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			e.cancels.Inc()
			return fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
		ctxDone = ctx.Done()
	}
	done.Add(1)
	depth.Add(1)
	select {
	case lane <- j:
		return nil
	default:
	}
	timer := time.NewTimer(e.queueWait)
	defer timer.Stop()
	var err error
	select {
	case lane <- j:
		return nil
	case <-ctxDone:
		e.cancels.Inc()
		err = fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	case <-timer.C:
		e.sheds.Inc()
		err = ErrOverloaded
	}
	done.Done()
	depth.Add(-1)
	return err
}

// Close drains the queue, waits for in-flight queries, and stops the
// workers. Queries submitted after Close fail with ErrClosed; Close is
// idempotent.
func (e *Engine) Close() {
	e.closing.Store(true)
	e.closeMu.Lock()
	if e.closed.Load() {
		e.closeMu.Unlock()
		return
	}
	e.closed.Store(true)
	e.closeMu.Unlock()
	close(e.queue)
	if e.writeQueue != nil {
		close(e.writeQueue)
	}
	e.wg.Wait()
}

// worker drains the queue until Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.queueDepth.Add(-1)
		e.serve(j)
		// Yield between queries: a warmed query runs in microseconds with
		// no allocation (no preemption points), so on a host with fewer
		// cores than workers one goroutine could otherwise drain the whole
		// queue inside a scheduler quantum, starving the rest of the pool.
		runtime.Gosched()
	}
}

// serve runs one dequeued query on a pooled session, freshly reset, with
// the query's trace and context attached, and settles it: the session's
// sticky error, the wall time and the charges — those accumulated before
// a failure or a panic included — go into the result and the metrics;
// the session returns to the pool unless the query panicked; and the
// submitter is acknowledged.
func (e *Engine) serve(j job) {
	s := e.sessions.Get().(*store.Session)
	s.Reset()
	res := j.res
	if j.q.Trace {
		res.Trace = obs.NewQueryTrace(j.q.Kind.String())
		cfg := e.sto.Config()
		res.Trace.SetCosts(cfg.Seek, cfg.Xfer)
		s.SetTrace(res.Trace)
	}
	if j.q.Ctx != nil {
		s.SetContext(j.q.Ctx)
	}
	start := time.Now()
	e.execute(s, j.q, res)
	if res.Err == nil {
		// A query can swallow individual read errors; the sticky session
		// error is the boundary check that keeps a poisoned result from
		// looking successful.
		res.Err = s.Err()
	}
	res.Wall = time.Since(start)
	res.Stats = s.Stats
	res.SimTime = s.Time()
	e.queries.Inc()
	if res.Err != nil {
		e.failures.Inc()
		if errors.Is(res.Err, ErrCanceled) {
			e.cancels.Inc()
		}
	}
	e.simLat.Observe(res.SimTime)
	e.wallLat.Observe(res.Wall.Seconds())
	if errors.Is(res.Err, ErrPanicked) {
		// A session that lived through a panic is in an unknown state;
		// drop it and let the pool mint a fresh one.
		res.Neighbors = nil
		e.panics.Inc()
	} else {
		e.sessions.Put(s)
	}
	j.done.Done()
}

// execute dispatches the query to the index, converting a panic into
// Result.Err so one poisoned query can neither kill its worker (which
// would shrink the pool for the life of the engine) nor leave its
// batch's WaitGroup forever undone.
func (e *Engine) execute(s *store.Session, q Query, res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("%w: %s query: %v", ErrPanicked, q.Kind, r)
		}
	}()
	switch q.Kind {
	case KNN:
		if q.MinRecall > 0 {
			e.approxQs.Inc()
			if as, ok := e.idx.(index.ApproxSearcher); ok {
				res.Neighbors, res.Err = as.KNNApprox(s, q.Point, q.K, q.MinRecall)
				break
			}
			// No approximate support: run exact, which trivially satisfies
			// any recall target.
		}
		res.Neighbors, res.Err = e.idx.KNN(s, q.Point, q.K)
	case Range:
		res.Neighbors, res.Err = e.idx.RangeSearch(s, q.Point, q.Eps)
	case Window:
		res.Neighbors, res.Err = e.idx.WindowQuery(s, q.Window)
	default:
		res.Err = fmt.Errorf("engine: unknown query kind %d", q.Kind)
	}
}

// String names a query kind.
func (k Kind) String() string {
	switch k {
	case KNN:
		return "knn"
	case Range:
		return "range"
	case Window:
		return "window"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}
