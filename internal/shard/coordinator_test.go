package shard

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

func randPoints(r *rand.Rand, n, dim int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	return pts
}

// mixedQueries builds a deterministic KNN/range/window workload.
func mixedQueries(r *rand.Rand, n, dim int) []engine.Query {
	batch := make([]engine.Query, 0, n)
	for i := 0; i < n; i++ {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = r.Float32()
		}
		switch i % 3 {
		case 0:
			batch = append(batch, engine.Query{Kind: engine.KNN, Point: q, K: 1 + r.Intn(8)})
		case 1:
			batch = append(batch, engine.Query{Kind: engine.Range, Point: q, Eps: 0.2 + r.Float64()*0.3})
		default:
			lo := make(vec.Point, dim)
			hi := make(vec.Point, dim)
			for j := range lo {
				a := r.Float32() * 0.6
				lo[j], hi[j] = a, a+0.3+r.Float32()*0.3
			}
			batch = append(batch, engine.Query{Kind: engine.Window, Window: vec.MBR{Lo: lo, Hi: hi}})
		}
	}
	return batch
}

// canonical sorts a copy of nbs into the coordinator's canonical order.
func canonical(kind engine.Kind, nbs []vec.Neighbor) []vec.Neighbor {
	out := append([]vec.Neighbor(nil), nbs...)
	if kind == engine.Window {
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// unshardedBaseline answers the batch on a single engine over the whole
// dataset, canonicalized for comparison.
func unshardedBaseline(t *testing.T, pts []vec.Point, batch []engine.Query) [][]vec.Neighbor {
	t.Helper()
	sto := store.NewSim(store.DefaultConfig())
	tr, err := core.Build(sto, pts, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(sto, tr, 2)
	defer e.Close()
	want := make([][]vec.Neighbor, len(batch))
	for i, res := range e.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("baseline query %d: %v", i, res.Err)
		}
		want[i] = canonical(batch[i].Kind, res.Neighbors)
	}
	return want
}

func assertSameResults(t *testing.T, label string, i int, kind engine.Kind, got, want []vec.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s query %d (%v): %d results, want %d", label, i, kind, len(got), len(want))
	}
	for j := range want {
		if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
			t.Fatalf("%s query %d (%v) result %d: got (%d,%v), want (%d,%v)",
				label, i, kind, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
		}
	}
}

// TestShardedMatchesUnsharded is the tentpole equivalence contract:
// scatter-gather over any shard count and either partitioner returns
// exactly the unsharded engine's answers (canonical order) for all
// three query kinds.
func TestShardedMatchesUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	pts := randPoints(r, 3000, 6)
	batch := mixedQueries(r, 36, 6)
	want := unshardedBaseline(t, pts, batch)

	parts := []Partitioner{RoundRobin{}, Centroid{Seed: 72}}
	for _, part := range parts {
		for _, shards := range []int{1, 2, 4, 8} {
			reg := &obs.Registry{}
			c, err := New(Config{
				Shards:      shards,
				Replicas:    1,
				Partitioner: part,
				Registry:    reg,
			}, pts)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", part.Name(), shards, err)
			}
			total := 0
			for _, n := range c.ShardSizes() {
				total += n
			}
			if total != len(pts) {
				t.Fatalf("%s/%d shards: %d points across shards, want %d", part.Name(), shards, total, len(pts))
			}
			for i, res := range c.SubmitBatch(batch) {
				if res.Err != nil {
					t.Fatalf("%s/%d shards query %d: %v", part.Name(), shards, i, res.Err)
				}
				assertSameResults(t, part.Name(), i, batch[i].Kind, res.Neighbors, want[i])
			}
			if got := reg.Counter("shard.merged").Value(); got != int64(len(batch)) {
				t.Fatalf("%s/%d shards: shard.merged = %d, want %d", part.Name(), shards, got, len(batch))
			}
			if got := reg.Counter("shard.failovers").Value(); got != 0 {
				t.Fatalf("%s/%d shards: %d failovers on a healthy fleet", part.Name(), shards, got)
			}
			c.Close()
		}
	}
}

// assertTraceMatchesStats checks that one shard's trace sums to its own
// session stats.
func assertTraceMatchesStats(t *testing.T, i, si int, sres engine.Result) {
	t.Helper()
	if sres.Trace == nil {
		t.Fatalf("query %d shard %d: no trace", i, si)
	}
	seeks, blocks, reads, cpu := sres.Trace.Totals()
	if seeks != sres.Stats.Seeks || blocks != sres.Stats.BlocksRead || reads != sres.Stats.Reads {
		t.Fatalf("query %d shard %d: trace totals (%d,%d,%d) != stats %+v",
			i, si, seeks, blocks, reads, sres.Stats)
	}
	if math.Abs(cpu-sres.Stats.CPUSeconds) > 1e-9 {
		t.Fatalf("query %d shard %d: trace cpu %g != stats cpu %g", i, si, cpu, sres.Stats.CPUSeconds)
	}
}

// TestShardStatsAttribution pins the coordinator's accounting: with a
// healthy fleet (no failovers) the coordinator's Stats are exactly the
// sum of the per-shard final results and every per-shard trace still
// sums to its own session stats. Where every box covers the query (a
// RoundRobin fleet over uniform data), SimTime is exactly the slowest
// shard's and fanout counts one sub-query per non-empty shard. On a
// Centroid fleet over clustered data, a KNN's SimTime is the slowest
// round-one shard plus the slowest round-two shard, fanout and pruned
// together count every non-empty shard, and a shard not asked stays
// zero-valued.
func TestShardStatsAttribution(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	pts := randPoints(r, 2000, 6)
	reg := &obs.Registry{}
	c, err := New(Config{Shards: 4, Replicas: 2, Registry: reg}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := mixedQueries(r, 18, 6)
	for i := range batch {
		batch[i].Trace = true
	}
	results := c.SubmitBatch(batch)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		if res.Failovers != 0 {
			t.Fatalf("query %d: %d failovers on a healthy fleet", i, res.Failovers)
		}
		var sum store.Stats
		var slowest float64
		for si, sres := range res.Shards {
			sum.Add(sres.Stats)
			if sres.SimTime > slowest {
				slowest = sres.SimTime
			}
			if len(c.ShardSizes()) > si && c.ShardSizes()[si] > 0 {
				assertTraceMatchesStats(t, i, si, sres)
			}
		}
		if sum != res.Stats {
			t.Fatalf("query %d: coordinator stats %+v != per-shard sum %+v", i, res.Stats, sum)
		}
		if math.Abs(slowest-res.SimTime) > 1e-12 {
			t.Fatalf("query %d: SimTime %g != slowest shard %g", i, res.SimTime, slowest)
		}
	}
	if got, want := reg.Counter("shard.fanout").Value(), int64(4*len(batch)); got != want {
		t.Fatalf("shard.fanout = %d, want %d", got, want)
	}

	// Centroid over clustered data: KNN queries one at a time, so the
	// counters can be read per query.
	cad := cadWithDuplicates(76, 3000)
	creg := &obs.Registry{}
	cc, err := New(Config{Shards: 4, Replicas: 2, Partitioner: Centroid{Seed: 77}, Registry: creg}, cad)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	fanout, pruned := creg.Counter("shard.fanout"), creg.Counter("shard.pruned")
	var skipped, twoRound int
	for i, p := range pruningQueries(r, cad, 30) {
		k := 1 + i%12
		f0, p0 := fanout.Value(), pruned.Value()
		res := cc.Submit(engine.Query{Kind: engine.KNN, Point: p, K: k, Trace: true})
		if res.Err != nil {
			t.Fatalf("centroid query %d: %v", i, res.Err)
		}
		if res.Failovers != 0 {
			t.Fatalf("centroid query %d: %d failovers on a healthy fleet", i, res.Failovers)
		}
		// Round one is every shard whose box is nearest to the query.
		minDist := make([]float64, cc.Shards())
		nearest := math.Inf(1)
		for si, sh := range cc.shards {
			minDist[si] = sh.box.Load().MinDist(p, vec.Euclidean)
			nearest = min(nearest, minDist[si])
		}
		var rounds [2][]int // the shards asked in round one and in round two
		for si, sres := range res.Shards {
			round := 0
			if minDist[si] > nearest {
				round = 1
			}
			if reflect.DeepEqual(sres, engine.Result{}) {
				// Not asked: only a round-two shard beyond the k-th distance.
				if round == 0 || minDist[si] <= res.Neighbors[k-1].Dist {
					t.Fatalf("centroid query %d: shard %d (box at %g, k-th distance %g) not asked",
						i, si, minDist[si], res.Neighbors[k-1].Dist)
				}
				skipped++
				continue
			}
			assertTraceMatchesStats(t, i, si, sres)
			rounds[round] = append(rounds[round], si)
		}
		// Sum in the coordinator's order: float addition is not associative.
		var sum store.Stats
		var slowest [2]float64
		for round, asked := range rounds {
			for _, si := range asked {
				sum.Add(res.Shards[si].Stats)
				slowest[round] = max(slowest[round], res.Shards[si].SimTime)
			}
		}
		twoRound += len(rounds[1])
		if sum != res.Stats {
			t.Fatalf("centroid query %d: coordinator stats %+v != asked-shard sum %+v", i, res.Stats, sum)
		}
		if math.Abs(slowest[0]+slowest[1]-res.SimTime) > 1e-12 {
			t.Fatalf("centroid query %d: SimTime %g != slowest round-one %g + slowest round-two %g",
				i, res.SimTime, slowest[0], slowest[1])
		}
		df, dp := fanout.Value()-f0, pruned.Value()-p0
		if asked := len(rounds[0]) + len(rounds[1]); df != int64(asked) || df+dp != int64(cc.Shards()) {
			t.Fatalf("centroid query %d: fanout %d + pruned %d, want %d asked of %d shards", i, df, dp, asked, cc.Shards())
		}
	}
	if skipped == 0 || twoRound == 0 {
		t.Fatalf("centroid fleet: %d shards skipped, %d asked in round two; want both > 0", skipped, twoRound)
	}
}

// TestShardClosedReplicaRouting checks health-aware routing: with one
// replica of every shard closed, queries route to the healthy sibling
// without failing; with every replica of a shard closed, queries fail
// typed with engine.ErrClosed instead of hanging.
func TestShardClosedReplicaRouting(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	pts := randPoints(r, 1200, 5)
	batch := mixedQueries(r, 12, 5)
	want := unshardedBaseline(t, pts, batch)

	c, err := New(Config{Shards: 2, Replicas: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for si := 0; si < c.Shards(); si++ {
		c.Engine(si, 0).Close()
		if h := c.Engine(si, 0).Health(); !h.Closed || h.Ready() {
			t.Fatalf("shard %d replica 0: health %+v after Close", si, h)
		}
	}
	for i, res := range c.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("query %d with one closed replica per shard: %v", i, res.Err)
		}
		assertSameResults(t, "degraded", i, batch[i].Kind, res.Neighbors, want[i])
	}

	// Kill the survivors of shard 0: the whole shard is now down, and a
	// partial scatter-gather must surface as a typed error, never as a
	// silently incomplete answer.
	c.Engine(0, 1).Close()
	res := c.Submit(engine.Query{Kind: engine.KNN, Point: pts[0], K: 3})
	if !errors.Is(res.Err, engine.ErrClosed) {
		t.Fatalf("query against a fully closed shard: err %v, want ErrClosed", res.Err)
	}
	if res.Neighbors != nil {
		t.Fatal("partial scatter-gather returned neighbors alongside the error")
	}
}

// TestShardQueryLocalErrorsSkipFailover checks that failover never
// retries query-local failures: an invalid query fails typed with zero
// replica retries consumed.
func TestShardQueryLocalErrorsSkipFailover(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	pts := randPoints(r, 600, 4)
	reg := &obs.Registry{}
	c, err := New(Config{Shards: 2, Replicas: 2, Registry: reg}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res := c.Submit(engine.Query{Kind: engine.KNN, Point: pts[0], K: 0})
	if !errors.Is(res.Err, engine.ErrInvalidQuery) {
		t.Fatalf("invalid query: err %v, want ErrInvalidQuery", res.Err)
	}
	if got := reg.Counter("shard.replica_retries").Value(); got != 0 {
		t.Fatalf("invalid query consumed %d replica retries, want 0", got)
	}
}
