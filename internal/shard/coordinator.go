// Package shard is the scale-out serving layer: a coordinator
// partitions one dataset across N independent shards — each its own
// store.Store, IQ-tree and internal/engine engine — scatter-gathers
// every query across all shards, and merges the per-shard answers into
// a globally exact result (see merge.go for the exactness argument).
//
// Each shard runs R replicas built independently from the same points:
// deterministic builds make every replica answer identically, so the
// coordinator may serve any query from any replica. Replica-local
// failures — corrupt blocks, overload shedding, contained panics, hard
// read errors, a closed engine — fail over to a sibling replica with
// bounded backoff; only query-local failures (cancellation, invalid
// shape) follow the query. PR 5's fault layer thus becomes
// availability: losing one replica loses zero queries and never changes
// an answer.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// Config parameterizes a Coordinator. The zero value of every optional
// field selects a sensible default (see New).
//
// Every replica is core.Build with core.DefaultOptions over its own
// store, served by an engine without extra options. One shard
// sub-query makes at most 2*Replicas replica attempts before its last
// error surfaces, sleeping retryBackoff before the first retry.
type Config struct {
	// Shards is the number of partitions (>= 1).
	Shards int
	// Replicas is the number of independently built copies per shard
	// (>= 1). One replica means failover has nowhere to go: replica-local
	// failures then surface to the caller.
	Replicas int
	// Workers is the worker-pool size of every replica engine (default 2).
	Workers int
	// Partitioner assigns build points to shards (default RoundRobin).
	Partitioner Partitioner
	// NewStore, when non-nil, supplies the store for one replica — the
	// hook chaos tests use to slot a FaultStore under a chosen replica.
	// Every replica gets an independent store — one disk per replica,
	// which is what makes shards scale. Default: store.NewSim with
	// store.DefaultConfig.
	NewStore func(shard, replica int) (*store.Store, error)
	// Registry receives the coordinator's shard.* metrics (default: a
	// private registry).
	Registry *obs.Registry
	// SelfHeal starts the repairer: failed replicas are drained, probed,
	// rebuilt from a healthy peer by one locked copy of its files and
	// readmitted instead of staying drained. See heal.go and DESIGN.md
	// §15. The replicas are then WAL-mode trees, so a copy recovers
	// through core.Open and Insert is acknowledged durably.
	SelfHeal bool
	// Heal tunes the repairer (zero fields take defaults, see HealConfig).
	Heal HealConfig
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
	// when every shard answered). A non-nil Err means Neighbors is nil:
	// a partial scatter-gather must not be trusted.
	Err error
	// Stats sums the simulated charges of every attempt on every shard,
	// failed attempts included — the true work the query cost the fleet.
	Stats store.Stats
	// SimTime is the simulated latency of the scatter-gather: the
	// slowest shard's summed attempt time (shards run in parallel,
	// failover attempts within a shard run sequentially).
	SimTime float64
	// Wall is the wall-clock time of the whole scatter-gather.
	Wall time.Duration
	// Failovers counts failed replica attempts that were retried on a
	// sibling during this query.
	Failovers int
	// Shards holds each shard's final attempt (zero-valued for empty
	// shards), indexed by shard id — per-shard traces and stats for
	// attribution.
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
	// Serving → Draining → Rebuilding → Serving. Without
	// SelfHeal a replica stays Serving forever and only engine health
	// gates routing, preserving PR 7 behavior.
	state atomic.Int32
	// fails counts consecutive failed attempts; any success resets it.
	// Replicas with strictly more consecutive failures than a sibling
	// are deprioritized, so traffic drains away from a broken replica
	// after its first failure instead of re-probing it every query.
	fails atomic.Int32

	// Repairer bookkeeping (heal.go). drainedSeq snapshots the shard's
	// writeSeq at drain time: probe readmission is only legal when no
	// write has landed since (the drained replica skipped them).
	drainedSeq atomic.Uint64
	drainedAt  atomic.Int64 // unix nanos of the drain, for MTTR
	probeFails int          // owned by the repairer goroutine
	nextProbe  time.Time    // owned by the repairer goroutine
}

// stack returns the replica's current serving stack.
func (r *replica) stack() *stack { return r.st.Load() }

// shardState is one partition: its global ID mapping and its replicas.
type shardState struct {
	// gids maps local ID (position in the build slice, extended by
	// Insert) to global ID. Behind an atomic pointer so the merge path
	// reads it lock-free while Insert grows it copy-on-write.
	gids atomic.Pointer[[]uint32]
	reps []*replica
	rr   atomic.Uint32 // rotates the preferred replica for load spread

	// writeMu serializes the shard's writes and the rebuild critical
	// section (copy, scrub, recovery, stack swap): holding it makes every
	// replica's files quiescent, which is what lets a rebuild copy a live
	// peer consistently. writeSeq counts applied write batches — the
	// staleness witness for probe readmission and the measure of a
	// drained replica's lag.
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
	dim    int // the fleet's dimensionality, from the build points

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
	merged    *obs.Counter // queries successfully merged
	failovers *obs.Counter // queries that needed at least one failover
	retries   *obs.Counter // failed replica attempts retried on a sibling
	writes    *obs.Counter // write batches applied

	drains       *obs.Counter // replicas drained by the repairer
	probes       *obs.Counter // canary probes sent
	probeFails   *obs.Counter // canary probes failed
	readmits     *obs.Counter // probe-driven readmissions (no rebuild)
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
	cfg.Heal = cfg.Heal.withDefaults()

	assign := cfg.Partitioner.Assign(pts, cfg.Shards)
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

	c := &Coordinator{
		cfg:          cfg,
		dim:          len(pts[0]),
		stopCh:       make(chan struct{}),
		reg:          cfg.Registry,
		fanout:       cfg.Registry.Counter("shard.fanout"),
		merged:       cfg.Registry.Counter("shard.merged"),
		failovers:    cfg.Registry.Counter("shard.failovers"),
		retries:      cfg.Registry.Counter("shard.replica_retries"),
		writes:       cfg.Registry.Counter("shard.writes"),
		drains:       cfg.Registry.Counter("shard.heal.drains"),
		probes:       cfg.Registry.Counter("shard.heal.probes"),
		probeFails:   cfg.Registry.Counter("shard.heal.probe_failures"),
		readmits:     cfg.Registry.Counter("shard.heal.readmissions"),
		rebuilds:     cfg.Registry.Counter("shard.heal.rebuilds"),
		rebuildFails: cfg.Registry.Counter("shard.heal.rebuild_failures"),
		mttr:         cfg.Registry.Histogram("shard.mttr_seconds"),
	}
	c.nextGID.Store(uint64(len(pts)))
	opt := core.DefaultOptions()
	if cfg.SelfHeal {
		opt.WAL = true
		opt.WALCheckpointBlocks = 256
	}
	for si := 0; si < cfg.Shards; si++ {
		sh := &shardState{}
		g := gids[si]
		sh.gids.Store(&g)
		if len(local[si]) > 0 {
			for ri := 0; ri < cfg.Replicas; ri++ {
				sto, err := cfg.NewStore(si, ri)
				if err != nil {
					c.Close()
					return nil, fmt.Errorf("shard %d replica %d: store: %w", si, ri, err)
				}
				tree, err := core.Build(sto, local[si], opt)
				if err != nil {
					c.Close()
					return nil, fmt.Errorf("shard %d replica %d: build: %w", si, ri, err)
				}
				eng := engine.New(sto, tree, cfg.Workers)
				rep := &replica{shard: si, id: ri}
				rep.st.Store(&stack{sto: sto, tree: tree, eng: eng})
				rep.state.Store(int32(Serving))
				sh.reps = append(sh.reps, rep)
			}
		}
		c.shards = append(c.shards, sh)
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

// Makespan returns the aggregate simulated wall-clock of the fleet so
// far: the busiest lane across every replica engine. Shards (and the
// lanes within each engine) model independent disks running in
// parallel, so the slowest one bounds the fleet's simulated finish time.
func (c *Coordinator) Makespan() float64 {
	var m float64
	for _, sh := range c.shards {
		for _, rep := range sh.reps {
			if b := rep.stack().eng.Makespan(); b > m {
				m = b
			}
		}
	}
	return m
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
	// engine.ErrClosed, engine.ErrTooManyRestarts and hard read errors
	// are all replica-local.
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

// Submit scatter-gathers one query across every non-empty shard and
// merges the per-shard answers into the globally exact result.
func (c *Coordinator) Submit(q engine.Query) Result {
	start := time.Now()
	// A recall target scatters with the query unchanged: each shard
	// stops at ε locally, so the merged miss probability compounds at
	// worst by a union bound over shards (see DESIGN.md §14). The merge
	// itself is unchanged: per-shard answers stay
	// subset-with-substitutions, so the merged list is too.
	res := Result{Shards: make([]engine.Result, len(c.shards))}
	answers := make([]shardAnswer, len(c.shards))
	var wg sync.WaitGroup
	for si, sh := range c.shards {
		if len(sh.reps) == 0 {
			continue // empty shard: empty contribution
		}
		c.fanout.Inc()
		wg.Add(1)
		go func(si int, sh *shardState) {
			defer wg.Done()
			answers[si] = c.askShard(sh, q)
		}(si, sh)
	}
	wg.Wait()

	var errs []error
	lists := make([][]vec.Neighbor, 0, len(c.shards))
	for si := range c.shards {
		ans := &answers[si]
		res.Shards[si] = ans.res
		res.Stats.Add(ans.stats)
		if ans.simTime > res.SimTime {
			res.SimTime = ans.simTime
		}
		res.Failovers += ans.failovers
		if len(c.shards[si].reps) == 0 {
			continue
		}
		if ans.res.Err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", si, ans.res.Err))
			continue
		}
		// Map local IDs (positions in the shard's build slice) back to
		// global IDs; merge then works purely in the global space.
		nbs := ans.res.Neighbors
		gids := c.shards[si].ids()
		for i := range nbs {
			nbs[i].ID = gids[nbs[i].ID]
		}
		lists = append(lists, nbs)
	}
	res.Wall = time.Since(start)
	if len(errs) > 0 {
		res.Err = errors.Join(errs...)
		return res
	}
	switch q.Kind {
	case engine.KNN:
		res.Neighbors = mergeKNN(lists, q.K)
	case engine.Range:
		res.Neighbors = mergeRange(lists)
	default:
		res.Neighbors = mergeWindow(lists)
	}
	c.merged.Inc()
	if res.Failovers > 0 {
		c.failovers.Inc()
	}
	return res
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
