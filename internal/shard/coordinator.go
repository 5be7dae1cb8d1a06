// Package shard is the scale-out serving layer: a coordinator
// partitions one dataset across N independent shards — each its own
// store.Store, IQ-tree and internal/engine engine — scatter-gathers
// each query across the shards, and merges the per-shard answers into
// a globally exact result (see merge.go for the exactness argument).
// Range and window queries go to every non-empty shard. A KNN takes at
// most two rounds over one bounding box per shard: first the shards
// whose box is nearest to the query, then an exact range query at the
// merged k-th distance on only the other shards whose box lies within
// it (see knn).
//
// Each shard runs R replicas written from one plan of its points, each
// through its own store: identical files make every replica answer
// identically, so the coordinator may serve any query from any replica.
// Replica-local failures — corrupt blocks, overload shedding, contained
// panics, hard read errors, a closed engine — fail over to a sibling
// replica with bounded backoff; only query-local failures
// (cancellation, invalid shape) follow the query. The store's fault
// layer thus becomes availability: losing one replica loses zero
// queries and never changes an answer.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/vec"
)

// Config parameterizes a Coordinator. The zero value of every optional
// field selects a sensible default (see New).
//
// Each replica is its shard's core.Plan (core.DefaultOptions) written to
// its own store, served by an engine without extra options. One shard
// sub-query makes at most 2*Replicas replica attempts before its last
// error surfaces, sleeping retryBackoff before the first retry.
type Config struct {
	// Shards is the number of partitions (>= 1).
	Shards int
	// Replicas is the number of copies per shard (>= 1), each written
	// from the shard's one plan through its own store, so a write fault
	// stays local to its copy. One replica means failover has nowhere to
	// go: replica-local failures then surface to the caller.
	Replicas int
	// Workers is the worker-pool size of every replica engine (default 2).
	Workers int
	// Partitioner assigns build points to shards and places inserted
	// points the same way (default RoundRobin).
	Partitioner Partitioner
	// NewStore, when non-nil, supplies the store for one replica — the
	// hook chaos tests use to slot a FaultStore under a chosen replica.
	// Every replica gets an independent store — one disk per replica,
	// which is what makes shards scale — and the replica stores of one
	// shard share one store.Config: the shard is planned once, for its
	// replica 0's, and a rebuild copies a peer's bytes. New calls it once
	// per replica of each non-empty shard, in (shard, replica) order, on
	// the caller's goroutine and before any build starts, so a hook may
	// record its stores without locking; the builds then run concurrently.
	// A rebuild (SelfHeal) calls it again for its replica and serves from
	// the returned store as is, pool and retry policy included. Default:
	// store.NewSim with store.DefaultConfig.
	NewStore func(shard, replica int) (*store.Store, error)
	// Registry receives the coordinator's shard.* metrics (default: a
	// private registry).
	Registry *obs.Registry
	// SelfHeal starts the repairer: failed replicas are drained, rebuilt
	// from a healthy peer by one locked copy of its files and readmitted
	// instead of staying drained. See heal.go and DESIGN.md §15. The
	// replicas are then WAL-mode trees, so a copy recovers through
	// core.Open and Insert is acknowledged durably.
	SelfHeal bool
}

// retryBackoff is the sleep before a sub-query's first retry, doubling
// per attempt and capped at 100x. It spaces retries of an overloaded
// replica without stalling corrupt-replica failover.
const retryBackoff = 100 * time.Microsecond

// Result is the outcome of one coordinated query.
type Result struct {
	// Neighbors is the globally exact merged answer in canonical order:
	// (Dist, ID) for KNN and range, ascending ID for window.
	Neighbors []vec.Neighbor
	// Err aggregates the shard sub-queries that exhausted failover (nil
	// when every asked shard answered), or rejects an invalid query. A
	// non-nil Err means Neighbors is nil: a partial scatter-gather must
	// not be trusted.
	Err error
	// Stats sums the simulated charges of every attempt on every asked
	// shard, failed attempts included — the true work the query cost the
	// fleet.
	Stats store.Stats
	// SimTime is the simulated latency of the scatter-gather: the
	// slowest shard's summed attempt time (shards run in parallel,
	// failover attempts within a shard run sequentially). A two-round
	// KNN adds the slowest shard of each round, because round two starts
	// after round one.
	SimTime float64
	// Wall is the wall-clock time of the whole scatter-gather.
	Wall time.Duration
	// Failovers counts failed replica attempts that were retried on a
	// sibling during this query.
	Failovers int
	// Shards holds each asked shard's final attempt, indexed by shard id
	// — per-shard traces and stats for attribution. It is zero-valued
	// for empty shards and for shards a KNN did not ask; a shard asked
	// in a KNN's second round holds its range answer.
	Shards []engine.Result
}

// stack is one replica's serving machinery. Rebuild replaces the whole
// stack atomically: queries racing the swap land on either the old or
// the new one whole, never a mix, and the old engine drains its
// in-flight queries before it is closed.
type stack struct {
	sto  *store.Store
	tree *core.Tree
	eng  *engine.Engine
}

// replica is one independently built copy of a shard.
type replica struct {
	shard, id int
	st        atomic.Pointer[stack]
	// state is the replica lifecycle (ReplicaState, see heal.go):
	// Serving → Draining → Rebuilding → Serving. Without SelfHeal
	// nothing rebuilds: a replica leaves Serving only by failing a write
	// (write.go) and then stays drained, and otherwise only engine
	// health gates routing.
	state atomic.Int32
	// fails counts consecutive failed attempts; any success resets it.
	// Replicas with strictly more consecutive failures than a sibling
	// are deprioritized, so traffic drains away from a broken replica
	// after its first failure instead of retrying it every query.
	fails atomic.Int32

	// Repairer bookkeeping (heal.go). drainedSeq snapshots the shard's
	// writeSeq at drain time, so Status can report the write batches the
	// drained replica skipped.
	drainedSeq atomic.Uint64
	drainedAt  atomic.Int64 // unix nanos of the drain, for MTTR
	retryAt    time.Time    // earliest retry after a failed rebuild
}

// stack returns the replica's current serving stack.
func (r *replica) stack() *stack { return r.st.Load() }

// shardState is one partition: its global ID mapping, its bounding box
// and its replicas.
type shardState struct {
	// gids maps local ID (position in the build slice, extended by
	// Insert) to global ID. Behind an atomic pointer so the merge path
	// reads it lock-free while Insert grows it copy-on-write.
	gids atomic.Pointer[[]uint32]
	// box bounds every point the shard holds (nil for an empty shard).
	// Insert grows it copy-on-write before any replica applies a batch;
	// nothing shrinks it.
	box  atomic.Pointer[vec.MBR]
	reps []*replica
	rr   atomic.Uint32 // rotates the preferred replica for load spread

	// writeMu serializes the shard's writes and the rebuild critical
	// section (copy, scrub, recovery, stack swap): holding it makes every
	// replica's files quiescent, which is what lets a rebuild copy a live
	// peer consistently. writeSeq counts applied write batches — the
	// measure of a drained replica's lag.
	writeMu  sync.Mutex
	writeSeq atomic.Uint64
}

// ids returns the shard's current local→global ID mapping.
func (sh *shardState) ids() []uint32 { return *sh.gids.Load() }

// Coordinator scatter-gathers queries across shards with per-shard
// replica failover. Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	shards []*shardState
	dim    int        // the fleet's dimensionality, from the build points
	metric vec.Metric // every replica's query metric
	place  Placer     // routes inserted points like the build placed its own

	// nextGID hands out global IDs for Insert (starts past the build
	// points).
	nextGID atomic.Uint64

	// Repairer lifecycle (heal.go): stopCh ends the loop, healWG tracks
	// it plus every in-flight rebuild goroutine.
	stopCh   chan struct{}
	stopOnce sync.Once
	healWG   sync.WaitGroup

	reg       *obs.Registry
	fanout    *obs.Counter // sub-queries dispatched to shards
	pruned    *obs.Counter // non-empty shards a KNN did not ask
	merged    *obs.Counter // queries successfully merged
	failovers *obs.Counter // queries that needed at least one failover
	retries   *obs.Counter // failed replica attempts retried on a sibling
	writes    *obs.Counter // write batches applied

	drains       *obs.Counter // replicas drained
	rebuilds     *obs.Counter // completed replica rebuilds
	rebuildFails *obs.Counter // rebuild attempts that gave up
	mttr         *obs.Histogram
}

// New partitions pts across cfg.Shards shards and builds cfg.Replicas
// independent store+index+engine replicas per non-empty shard.
func New(cfg Config, pts []vec.Point) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("shard: need at least 1 replica, got %d", cfg.Replicas)
	}
	if len(pts) == 0 {
		return nil, errors.New("shard: cannot partition an empty point set")
	}
	for i, p := range pts {
		if len(p) != len(pts[0]) {
			return nil, fmt.Errorf("shard: point %d has dimension %d, want %d", i, len(p), len(pts[0]))
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = RoundRobin{}
	}
	if cfg.NewStore == nil {
		cfg.NewStore = func(_, _ int) (*store.Store, error) { return store.NewSim(store.DefaultConfig()), nil }
	}
	if cfg.Registry == nil {
		cfg.Registry = &obs.Registry{}
	}

	assign, place := cfg.Partitioner.Assign(pts, cfg.Shards)
	if len(assign) != len(pts) {
		return nil, fmt.Errorf("shard: partitioner %s assigned %d of %d points", cfg.Partitioner.Name(), len(assign), len(pts))
	}
	local := make([][]vec.Point, cfg.Shards)
	gids := make([][]uint32, cfg.Shards)
	for i, si := range assign {
		if si < 0 || si >= cfg.Shards {
			return nil, fmt.Errorf("shard: partitioner %s assigned point %d to shard %d of %d", cfg.Partitioner.Name(), i, si, cfg.Shards)
		}
		local[si] = append(local[si], pts[i])
		gids[si] = append(gids[si], uint32(i))
	}

	opt := core.DefaultOptions()
	if cfg.SelfHeal {
		opt.WAL = true
		opt.WALCheckpointBlocks = 256
	}
	c := &Coordinator{
		cfg:          cfg,
		dim:          len(pts[0]),
		metric:       opt.Metric,
		place:        place,
		stopCh:       make(chan struct{}),
		reg:          cfg.Registry,
		fanout:       cfg.Registry.Counter("shard.fanout"),
		pruned:       cfg.Registry.Counter("shard.pruned"),
		merged:       cfg.Registry.Counter("shard.merged"),
		failovers:    cfg.Registry.Counter("shard.failovers"),
		retries:      cfg.Registry.Counter("shard.replica_retries"),
		writes:       cfg.Registry.Counter("shard.writes"),
		drains:       cfg.Registry.Counter("shard.heal.drains"),
		rebuilds:     cfg.Registry.Counter("shard.heal.rebuilds"),
		rebuildFails: cfg.Registry.Counter("shard.heal.rebuild_failures"),
		mttr:         cfg.Registry.Histogram("shard.mttr_seconds"),
	}
	c.nextGID.Store(uint64(len(pts)))
	// Stores come first, in (shard, replica) order on this goroutine (the
	// Config.NewStore contract). Each non-empty shard is then planned once,
	// for its replica 0's store config, by par.For, so at most GOMAXPROCS
	// plans at a time: each holds D_F's pair distances and then a row copy
	// of its points, on up to GOMAXPROCS goroutines of its own. Every
	// replica is then written from its shard's plan by par.For again; a
	// failed plan fails its shard's replica 0.
	type build struct {
		shard, replica int
		sto            *store.Store
		tree           *core.Tree
		err            error
	}
	var builds []build
	for si := range local {
		if len(local[si]) == 0 {
			continue
		}
		for ri := 0; ri < cfg.Replicas; ri++ {
			sto, err := cfg.NewStore(si, ri)
			if err != nil {
				return nil, fmt.Errorf("shard %d replica %d: store: %w", si, ri, err)
			}
			builds = append(builds, build{shard: si, replica: ri, sto: sto})
		}
	}
	plans := make([]*core.Plan, cfg.Shards)
	par.For(len(builds)/cfg.Replicas, func() func(int) {
		return func(i int) {
			b := &builds[i*cfg.Replicas] // replica 0 of the i-th non-empty shard
			plans[b.shard], b.err = core.NewPlan(local[b.shard], opt, b.sto.Config())
		}
	})
	par.For(len(builds), func() func(int) {
		return func(i int) {
			if b := &builds[i]; plans[b.shard] != nil {
				b.tree, b.err = plans[b.shard].Build(b.sto)
			}
		}
	})
	for _, b := range builds {
		if b.err != nil {
			return nil, fmt.Errorf("shard %d replica %d: build: %w", b.shard, b.replica, b.err)
		}
	}
	for si := range local {
		sh := &shardState{}
		g := gids[si]
		sh.gids.Store(&g)
		if len(local[si]) > 0 {
			box := vec.MBROf(local[si])
			sh.box.Store(&box)
		}
		c.shards = append(c.shards, sh)
	}
	for _, b := range builds {
		rep := &replica{shard: b.shard, id: b.replica}
		rep.st.Store(&stack{sto: b.sto, tree: b.tree, eng: engine.New(b.sto, b.tree, cfg.Workers)})
		rep.state.Store(int32(Serving))
		sh := c.shards[b.shard]
		sh.reps = append(sh.reps, rep)
	}
	if cfg.SelfHeal {
		c.healWG.Add(1)
		go c.repairer()
	}
	return c, nil
}

// Close stops the repairer, waits out in-flight rebuilds, then shuts
// down every replica engine (idempotent).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.healWG.Wait()
	for _, sh := range c.shards {
		for _, rep := range sh.reps {
			rep.stack().eng.Close()
		}
	}
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Replicas returns the replica count per non-empty shard.
func (c *Coordinator) Replicas() int { return c.cfg.Replicas }

// Registry returns the registry carrying the coordinator's metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// ShardSizes returns the number of points on each shard.
func (c *Coordinator) ShardSizes() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		out[i] = len(sh.ids())
	}
	return out
}

// Engine returns one replica's engine (for health inspection and chaos
// tests), or nil when the shard is empty or out of range.
func (c *Coordinator) Engine(shard, replica int) *engine.Engine {
	if shard < 0 || shard >= len(c.shards) {
		return nil
	}
	sh := c.shards[shard]
	if replica < 0 || replica >= len(sh.reps) {
		return nil
	}
	return sh.reps[replica].stack().eng
}

// retryable classifies a failed attempt: replica-local failures (the
// sibling replica holds the same data on different hardware) are worth
// a failover; query-local failures follow the query to any replica and
// fail immediately.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, engine.ErrCanceled) || errors.Is(err, engine.ErrInvalidQuery) {
		return false
	}
	// *store.CorruptBlockError, engine.ErrOverloaded, engine.ErrPanicked,
	// engine.ErrClosed and hard read errors are all replica-local.
	return true
}

// shardAnswer is one shard's contribution to a query.
type shardAnswer struct {
	res       engine.Result // final attempt
	stats     store.Stats   // summed charges across every attempt
	simTime   float64       // summed simulated time across every attempt
	failovers int
}

// askShard serves one sub-query on one shard, failing over across
// replicas on retryable errors with bounded exponential backoff.
// Replica choice rotates for load spread, prefers healthy replicas
// (ready and with the fewest consecutive failures), and sticks to the
// query's context semantics: cancellation is never retried.
func (c *Coordinator) askShard(sh *shardState, q engine.Query) shardAnswer {
	var ans shardAnswer
	start := int(sh.rr.Add(1)-1) % len(sh.reps)
	maxAttempts := 2 * c.cfg.Replicas
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rep := sh.pick(start + attempt)
		if rep == nil {
			// Every replica is closed; report it as the typed error.
			ans.res = engine.Result{Err: engine.ErrClosed}
			return ans
		}
		if attempt > 0 {
			d := retryBackoff << uint(attempt-1)
			if max := 100 * retryBackoff; d > max {
				d = max
			}
			time.Sleep(d)
		}
		res := rep.stack().eng.Submit(q)
		ans.res = res
		ans.stats.Add(res.Stats)
		ans.simTime += res.SimTime
		if res.Err == nil {
			rep.fails.Store(0)
			return ans
		}
		if !retryable(res.Err) {
			return ans
		}
		rep.fails.Add(1)
		if attempt+1 < maxAttempts {
			ans.failovers++
			c.retries.Inc()
		}
	}
	return ans
}

// pick returns the replica to try for attempt number n (already offset
// by the query's rotation), preferring ready replicas with the fewest
// consecutive failures so traffic drains away from a broken replica.
// Replicas not in state Serving never serve: a drained replica has
// skipped writes, so answering from it could return stale results even
// when its engine looks healthy. Returns nil only when every replica is
// closed or drained.
func (sh *shardState) pick(n int) *replica {
	r := len(sh.reps)
	var best *replica
	var bestFails int32
	for off := 0; off < r; off++ {
		rep := sh.reps[(n+off)%r]
		if ReplicaState(rep.state.Load()) != Serving {
			continue
		}
		if !rep.stack().eng.Health().Ready() {
			continue
		}
		f := rep.fails.Load()
		if best == nil || f < bestFails {
			best, bestFails = rep, f
		}
		if f == 0 {
			break // first ready clean replica in rotation order wins
		}
	}
	return best
}

// Submit scatter-gathers one query across the shards and merges the
// per-shard answers into the globally exact result: a KNN in at most
// two rounds (see knn), a range or window query in one round over
// every non-empty shard.
func (c *Coordinator) Submit(q engine.Query) Result {
	start := time.Now()
	res := Result{Shards: make([]engine.Result, len(c.shards))}
	// Check the query at the door: an invalid one is query-local, so no
	// replica could answer it, and a point longer than the fleet's would
	// index past a shard's box.
	if err := q.Validate(c.dim); err != nil {
		res.Err = err
		res.Wall = time.Since(start)
		return res
	}
	var lists [][]vec.Neighbor
	var err error
	if q.Kind == engine.KNN {
		lists, err = c.knn(q, &res)
	} else {
		lists, res.SimTime, err = c.ask(q, c.nonEmpty(), &res)
	}
	res.Wall = time.Since(start)
	if err != nil {
		res.Err = err
		return res
	}
	res.Neighbors = merge(q.Kind, lists, q.K)
	c.merged.Inc()
	if res.Failovers > 0 {
		c.failovers.Inc()
	}
	return res
}

// nonEmpty returns the ids of the shards that hold replicas.
func (c *Coordinator) nonEmpty() []int {
	ids := make([]int, 0, len(c.shards))
	for si, sh := range c.shards {
		if len(sh.reps) > 0 {
			ids = append(ids, si)
		}
	}
	return ids
}

// knn answers a KNN in at most two rounds over the shards' boxes — the
// k-d tree's bounds-overlap-ball test one level above the IQ-tree's own
// MINDIST pruning (DESIGN.md §12). Round one asks every non-empty shard
// whose box is nearest to q. With d the k-th distance of the merged
// round-one answer, round two asks every other shard whose box lies
// within d an exact range query at d, and skips the rest: a point of a
// skipped shard lies beyond d, so k closer points are already in hand.
// When round one found fewer than k points, round two asks every other
// shard the KNN itself. A round-one failure fails the query without a
// second round.
//
// A recall target runs in round one only: each shard stops at ε
// locally and returns a subset with substitutions (DESIGN.md §14).
// Round two is exact, so it can only add true neighbors the first
// round missed, and the merged list stays subset-with-substitutions.
func (c *Coordinator) knn(q engine.Query, res *Result) ([][]vec.Neighbor, error) {
	minDist := make([]float64, len(c.shards))
	nearest := math.Inf(1)
	for si, sh := range c.shards {
		if box := sh.box.Load(); box != nil {
			minDist[si] = box.MinDist(q.Point, c.metric)
			nearest = min(nearest, minDist[si])
		}
	}
	var first, rest []int
	for _, si := range c.nonEmpty() {
		if minDist[si] == nearest {
			first = append(first, si)
		} else {
			rest = append(rest, si)
		}
	}
	lists, slowest, err := c.ask(q, first, res)
	res.SimTime = slowest
	if err != nil || len(rest) == 0 {
		return lists, err
	}
	top := merge(engine.KNN, lists, q.K)
	second := q
	if len(top) == q.K {
		// A computed MINDIST never exceeds the computed distance to a
		// point inside the box (both sum the same float64 per-axis
		// terms), so only a box strictly beyond d is skipped; Range(d)
		// returns every point tied at d for the canonical cut.
		d := top[q.K-1].Dist
		second = engine.Query{Kind: engine.Range, Point: q.Point, Eps: d, Trace: q.Trace, Ctx: q.Ctx}
		asked := rest[:0]
		for _, si := range rest {
			if minDist[si] <= d {
				asked = append(asked, si)
			}
		}
		c.pruned.Add(int64(len(rest) - len(asked)))
		rest = asked
	}
	more, slowest, err := c.ask(second, rest, res)
	res.SimTime += slowest
	return append(more, top), err
}

// ask scatters q to the listed shards in parallel and folds their
// answers into res: each final attempt into res.Shards, the charges
// into res.Stats, the failovers into res.Failovers. It returns the
// answers with local IDs mapped to global ones and the slowest asked
// shard's simulated time; a shard that exhausted failover makes err
// non-nil.
func (c *Coordinator) ask(q engine.Query, shards []int, res *Result) (lists [][]vec.Neighbor, slowest float64, err error) {
	answers := make([]shardAnswer, len(shards))
	var wg sync.WaitGroup
	for i, si := range shards {
		c.fanout.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = c.askShard(c.shards[si], q)
		}()
	}
	wg.Wait()

	var errs []error
	lists = make([][]vec.Neighbor, 0, len(shards))
	for i, si := range shards {
		ans := &answers[i]
		res.Shards[si] = ans.res
		res.Stats.Add(ans.stats)
		res.Failovers += ans.failovers
		slowest = max(slowest, ans.simTime)
		if ans.res.Err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", si, ans.res.Err))
			continue
		}
		// Map local IDs (positions in the shard's build slice) back to
		// global IDs; merge then works purely in the global space.
		nbs := ans.res.Neighbors
		gids := c.shards[si].ids()
		for j := range nbs {
			nbs[j].ID = gids[nbs[j].ID]
		}
		lists = append(lists, nbs)
	}
	return lists, slowest, errors.Join(errs...)
}

// SubmitBatch runs all queries through the coordinator with bounded
// concurrency (one scatter-gather per engine worker in flight, so no
// replica's queue is ever overrun by the batch itself) and returns
// results in query order.
func (c *Coordinator) SubmitBatch(qs []engine.Query) []Result {
	results := make([]Result, len(qs))
	inflight := c.cfg.Workers
	if inflight < 1 {
		inflight = 1
	}
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for i := range qs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Submit(qs[i])
			<-sem
		}(i)
	}
	wg.Wait()
	return results
}
