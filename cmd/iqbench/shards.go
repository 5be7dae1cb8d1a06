package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
)

// shardCounts is the scale-out sweep; the chaos campaign runs on its
// largest topology with chaosReplicas replicas per shard.
var shardCounts = []int{1, 2, 4, 8}

const chaosReplicas = 2

// shardMTTRBudget is the self-healing gate's recovery budget: from
// injection (one replica corrupted, one killed) to all-Serving under
// live reads and writes.
const shardMTTRBudget = 30 * time.Second

// shardBatch builds the sweep workload: a KNN/range/window mix. Range
// and window work partitions cleanly across shards; KNN pays a per-shard
// candidate-refinement overhead — the mix keeps the sweep honest about
// both.
func shardBatch(seed int64, queries, dim, k int) []engine.Query {
	r := rand.New(rand.NewSource(seed))
	batch := make([]engine.Query, 0, queries)
	for i := 0; i < queries; i++ {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = r.Float32()
		}
		switch i % 3 {
		case 0:
			batch = append(batch, engine.Query{Kind: engine.KNN, Point: q, K: k})
		case 1:
			batch = append(batch, engine.Query{Kind: engine.Range, Point: q, Eps: 0.9 + r.Float64()*0.2})
		default:
			lo := make(vec.Point, dim)
			hi := make(vec.Point, dim)
			for j := range lo {
				a := r.Float32() * 0.5
				lo[j], hi[j] = a, a+0.35+r.Float32()*0.15
			}
			batch = append(batch, engine.Query{Kind: engine.Window, Window: vec.MBR{Lo: lo, Hi: hi}})
		}
	}
	return batch
}

// canonicalNbs sorts one answer into the coordinator's canonical order
// so answers can be compared across topologies.
func canonicalNbs(kind engine.Kind, nbs []vec.Neighbor) []vec.Neighbor {
	out := append([]vec.Neighbor(nil), nbs...)
	sort.Slice(out, func(i, j int) bool {
		if kind != engine.Window && out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// sameAnswer reports whether two answers hold the same neighbors in the
// same order, bit for bit.
func sameAnswer(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// fleetMakespan is the simulated finish time of a batch on a fleet of
// one-replica shards with workers disk lanes each: every shard deals the
// sub-queries it answered, in query order, to its lanes (makespan), and
// the slowest shard sets the time. Taken from the results, it does not
// depend on the order in which the coordinator's concurrent
// scatter-gathers reached an engine.
func fleetMakespan(results []shard.Result, workers int) float64 {
	answered := map[int][]float64{} // shard → its sub-queries' simulated seconds
	for _, res := range results {
		for s, sub := range res.Shards {
			if sub.SimTime > 0 { // zero for a shard the query did not ask
				answered[s] = append(answered[s], sub.SimTime)
			}
		}
	}
	var m float64
	for _, sims := range answered {
		m = max(m, makespan(sims, workers))
	}
	return m
}

// runShards benchmarks sharded scatter-gather serving: a scaling sweep
// over shard counts (one replica each: replicas add availability, not
// capacity), then a chaos campaign on the largest topology. QPS divides
// the batch size by the fleet's simulated makespan (fleetMakespan), so
// the number models N shards' disks running in parallel. Mismatched
// counts queries whose merged answer differed from the single-shard
// answer (sharding never changes one).
func runShards(o experiments.RunOpts) (experiments.Figure, error) {
	// Sharding is a scale-out play: per-shard fixed costs (directory
	// seek, per-shard KNN refinement) amortize only over enough data,
	// so the sweep keeps a higher floor than the single-node benches.
	n := max(16000, int(200000*o.Scale))
	const dim, k, workers = 16, 4, 2
	db, err := dataset.Generate(dataset.Uniform, o.Seed, n, dim)
	if err != nil {
		return experiments.Figure{}, err
	}
	batch := shardBatch(o.Seed+1, o.Queries, dim, k)

	fig := experiments.Figure{
		ID: "shards",
		Title: fmt.Sprintf("Sharded scatter-gather, then chaos at %d shards x %d replicas (%s n=%d dim=%d queries=%d k=%d workers/replica=%d partitioner=%s)",
			shardCounts[len(shardCounts)-1], chaosReplicas, dataset.Uniform, n, dim, len(batch), k, workers, shard.RoundRobin{}.Name()),
		XLabel: "shards",
	}
	var baseline [][]vec.Neighbor
	var baseQPS float64
	for _, sc := range shardCounts {
		reg := &obs.Registry{}
		c, err := shard.New(shard.Config{Shards: sc, Replicas: 1, Workers: workers, Registry: reg}, db)
		if err != nil {
			return experiments.Figure{}, fmt.Errorf("shards=%d: %w", sc, err)
		}
		results := c.SubmitBatch(batch)
		qps := float64(len(batch)) / fleetMakespan(results, workers)
		c.Close()
		answers := make([][]vec.Neighbor, len(results))
		for i, res := range results {
			if res.Err != nil {
				return experiments.Figure{}, fmt.Errorf("shards=%d query %d: %w", sc, i, res.Err)
			}
			answers[i] = canonicalNbs(batch[i].Kind, res.Neighbors)
		}
		mismatched := 0
		if baseline == nil {
			baseline, baseQPS = answers, qps
		}
		for i := range answers {
			if !sameAnswer(answers[i], baseline[i]) {
				mismatched++
			}
		}
		x := float64(sc)
		add(&fig, "sim qps", x, qps)
		add(&fig, "speedup", x, qps/baseQPS)
		add(&fig, "fanout", x, float64(reg.Counter("shard.fanout").Value()))
		add(&fig, "mismatched", x, float64(mismatched))
	}
	if err := runShardChaos(&fig, db, batch, baseline, shardCounts[len(shardCounts)-1], workers, o.Seed); err != nil {
		return experiments.Figure{}, err
	}
	return fig, nil
}

// chaosConfig builds the chaos fleet configuration over checksummed
// stores.
func chaosConfig(shards, workers int, selfHeal bool, reg *obs.Registry,
	stores map[[2]int]*store.Store) shard.Config {
	return shard.Config{
		Shards:   shards,
		Replicas: chaosReplicas,
		Workers:  workers,
		SelfHeal: selfHeal,
		Registry: reg,
		NewStore: func(si, ri int) (*store.Store, error) {
			sto := store.NewSim(store.DefaultConfig())
			if err := sto.EnableChecksums(); err != nil {
				return nil, err
			}
			if stores != nil {
				stores[[2]int{si, ri}] = sto
			}
			return sto, nil
		},
	}
}

// runShardChaos runs the self-healing campaign and adds its series at
// x = shards: a SelfHeal topology serves the batch once healthy, then
// one replica's directory is corrupted at rest (bit flips beneath the
// checksum sidecars) and another replica's engine is killed mid-batch.
// Live writes keep landing while the repairer drains both victims and
// rebuilds them from copies of their siblings. Lost counts queries that
// returned an error; mismatched counts answers that differed from an
// untouched twin fed the same writes. MTTR is the wall-clock from
// injection to the first all-Serving observation under that load.
func runShardChaos(fig *experiments.Figure, db []vec.Point, batch []engine.Query, baseline [][]vec.Neighbor,
	shards, workers int, seed int64) error {
	reg := &obs.Registry{}
	stores := make(map[[2]int]*store.Store)
	c, err := shard.New(chaosConfig(shards, workers, true, reg, stores), db)
	if err != nil {
		return fmt.Errorf("chaos build: %w", err)
	}
	defer c.Close()
	// The untouched twin is the truth for post-write rounds: same
	// builds, same writes, no faults, no healing.
	twin, err := shard.New(chaosConfig(shards, workers, false, &obs.Registry{}, nil), db)
	if err != nil {
		return fmt.Errorf("chaos twin build: %w", err)
	}
	defer twin.Close()

	var queries, lost, mismatched, writes int
	verify := func(results []shard.Result, want [][]vec.Neighbor) {
		for i, res := range results {
			queries++
			if res.Err != nil {
				lost++
				continue
			}
			if !sameAnswer(canonicalNbs(batch[i].Kind, res.Neighbors), want[i]) {
				mismatched++
			}
		}
	}
	// Round 1: healthy fleet, answers must match the sweep baseline.
	verify(c.SubmitBatch(batch), baseline)

	// Inject: corrupt replica 0 of shard 0 at rest (flip a bit in every
	// directory block straight on the backend, beneath the checksum
	// sidecars) and kill replica 1 of the last shard mid-batch.
	bf := stores[[2]int{0, 0}].Backend().Lookup(core.DirFileName)
	if bf == nil {
		return fmt.Errorf("chaos: victim replica has no directory file")
	}
	for b := 0; b < bf.Blocks(); b++ {
		data, err := bf.ReadBlocks(b, 1)
		if err != nil {
			return err
		}
		buf := append([]byte(nil), data...)
		buf[0] ^= 0x40
		if err := bf.WriteBlocks(b, buf); err != nil {
			return err
		}
	}
	injected := time.Now()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		c.Engine(shards-1, 1).Close()
	}()
	verify(c.SubmitBatch(batch), baseline)
	<-killed

	// Healing rounds: writes and queries keep flowing while both victims
	// rebuild. The repairer needs query traffic to notice the corrupt
	// replica (its engine is healthy; only real reads fail), so every
	// round serves the batch and compares against the twin.
	dim := len(db[0])
	r := rand.New(rand.NewSource(seed + 2))
	rebuilds := reg.Counter("shard.heal.rebuilds")
	deadline := injected.Add(120 * time.Second)
	mttr := 0.0
	for {
		extra := make([]vec.Point, 64)
		for i := range extra {
			p := make(vec.Point, dim)
			for j := range p {
				p[j] = r.Float32()
			}
			extra[i] = p
		}
		if _, err := c.Insert(extra); err != nil {
			return fmt.Errorf("chaos insert: %w", err)
		}
		if _, err := twin.Insert(extra); err != nil {
			return fmt.Errorf("chaos twin insert: %w", err)
		}
		writes += len(extra)

		tres := twin.SubmitBatch(batch)
		want := make([][]vec.Neighbor, len(tres))
		for i, res := range tres {
			if res.Err != nil {
				return fmt.Errorf("chaos twin query %d: %w", i, res.Err)
			}
			want[i] = canonicalNbs(batch[i].Kind, res.Neighbors)
		}
		verify(c.SubmitBatch(batch), want)

		if c.Healthy() && rebuilds.Value() >= 2 {
			mttr = time.Since(injected).Seconds()
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	allServing := 0.0
	if c.Healthy() {
		allServing = 1
	}

	x := float64(shards)
	add(fig, "chaos queries", x, float64(queries))
	add(fig, "chaos writes", x, float64(writes))
	add(fig, "chaos lost", x, float64(lost))
	add(fig, "chaos mismatched", x, float64(mismatched))
	add(fig, "chaos failovers", x, float64(reg.Counter("shard.failovers").Value()))
	add(fig, "chaos retries", x, float64(reg.Counter("shard.replica_retries").Value()))
	add(fig, "chaos drains", x, float64(reg.Counter("shard.heal.drains").Value()))
	add(fig, "chaos rebuilds", x, float64(rebuilds.Value()))
	add(fig, "chaos all serving", x, allServing)
	add(fig, "chaos mttr s", x, mttr)
	return nil
}

// checkShards enforces the scale-out acceptance thresholds: >= 3x
// aggregate simulated QPS at 8 shards over 1 shard, no mismatched
// answers anywhere in the sweep, and a self-healing chaos campaign with
// zero lost and zero mismatched queries, some failover or retry (else
// nothing was exercised), the fleet back to all-Serving, both failed
// replicas (one corrupt, one killed) rebuilt, and MTTR within budget.
func checkShards(fig experiments.Figure) error {
	g := gateCheck{fig: fig}
	for _, sc := range shardCounts {
		m := g.at("mismatched", float64(sc))
		g.require(m == 0, "%.0f mismatched answers at %d shards", m, sc)
	}
	speedup := g.at("speedup", 8)
	g.require(speedup >= 3, "%.2fx aggregate sim QPS at 8 shards, want >= 3x", speedup)
	lost, mismatched := g.at("chaos lost", 8), g.at("chaos mismatched", 8)
	g.require(lost == 0 && mismatched == 0, "chaos lost %.0f / mismatched %.0f queries, want 0/0", lost, mismatched)
	failovers, retries := g.at("chaos failovers", 8), g.at("chaos retries", 8)
	g.require(failovers+retries > 0, "chaos campaign recorded no failovers or retries: nothing was exercised")
	g.require(g.at("chaos all serving", 8) == 1, "fleet never converged back to all-Serving")
	rebuilds := g.at("chaos rebuilds", 8)
	g.require(rebuilds >= 2, "%.0f rebuilds recorded, want >= 2 (one corrupt, one killed)", rebuilds)
	mttr := g.at("chaos mttr s", 8)
	g.require(mttr <= shardMTTRBudget.Seconds(), "MTTR %.2fs over the %s budget", mttr, shardMTTRBudget)
	return g.err()
}
