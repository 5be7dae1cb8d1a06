package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vec"
)

// bruteForce is the ground truth of one query point: its distance to
// every point by ID, and the same distances sorted.
type bruteForce struct{ dists, sorted []float64 }

func newBruteForce(pts []vec.Point, q vec.Point) bruteForce {
	b := bruteForce{dists: make([]float64, len(pts))}
	for i, p := range pts {
		b.dists[i] = vec.Euclidean.Dist(q, p)
	}
	b.sorted = append([]float64(nil), b.dists...)
	sort.Float64s(b.sorted)
	return b
}

// assertExact checks a merged KNN answer against the ground truth: the
// distance sequence of the brute-force top-k, every ID carrying its
// claimed distance, in canonical (Dist, ID) order. A shard breaks ties
// at its own k-th distance by any member, so among points tied at the
// k-th distance any may be returned (as in
// TestShardDuplicateDistancesAtBoundary); every closer point is forced.
func (b bruteForce) assertExact(t *testing.T, label string, k int, got []vec.Neighbor) {
	t.Helper()
	want := b.sorted[:min(k, len(b.sorted))]
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j, nb := range got {
		if nb.Dist != want[j] || int(nb.ID) >= len(b.dists) || nb.Dist != b.dists[nb.ID] {
			t.Fatalf("%s result %d: got (%d,%v), want distance %v carried by its ID", label, j, nb.ID, nb.Dist, want[j])
		}
		if j > 0 && (got[j-1].Dist > nb.Dist || got[j-1].Dist == nb.Dist && got[j-1].ID >= nb.ID) {
			t.Fatalf("%s: results not in canonical (Dist, ID) order at %d", label, j)
		}
	}
}

// cadWithDuplicates returns n clustered CAD points followed by a
// duplicate-heavy tail: 20 of them copied 15 times each.
func cadWithDuplicates(seed int64, n int) []vec.Point {
	pts := dataset.GenCAD(seed, n)
	for i := 0; i < 20; i++ {
		src := pts[(i*397)%n]
		for j := 0; j < 15; j++ {
			pts = append(pts, src.Clone())
		}
	}
	return pts
}

// pruningQueries returns query points at data points (duplicates
// included), near data points, and outside the data's range.
func pruningQueries(r *rand.Rand, pts []vec.Point, n int) []vec.Point {
	qs := make([]vec.Point, 0, n)
	for i := 0; i < n; i++ {
		q := pts[r.Intn(len(pts))].Clone()
		switch i % 3 {
		case 1:
			for j := range q {
				q[j] += float32(r.NormFloat64() * 0.01)
			}
		case 2:
			for j := range q {
				if r.Intn(3) == 0 {
					q[j] = -0.3 + 1.6*float32(r.Intn(2)) + 0.2*r.Float32()
				}
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// TestShardPruningExact checks that skipping shards never changes an
// answer: on clustered data with a duplicate-heavy tail, under both
// partitioners and 2, 4 and 8 shards, every two-round KNN is the exact
// brute-force answer (see assertExact); recall-target queries
// return genuine points at their true distances; and points inserted
// outside every shard's box, while another goroutine keeps querying,
// are found by a KNN at each of them at once.
func TestShardPruningExact(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	pts := cadWithDuplicates(102, 6000)
	qs := pruningQueries(r, pts, 60)
	truth := make([]bruteForce, len(qs))
	for i, q := range qs {
		truth[i] = newBruteForce(pts, q)
	}
	var centroidPruned int64
	for _, part := range []Partitioner{RoundRobin{}, Centroid{Seed: 103}} {
		for _, shards := range []int{2, 4, 8} {
			label := fmt.Sprintf("%s/%d shards", part.Name(), shards)
			reg := &obs.Registry{}
			c, err := New(Config{Shards: shards, Replicas: 1, Partitioner: part, Registry: reg}, pts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, q := range qs {
				for _, k := range []int{1, 10, 40} {
					res := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
					if res.Err != nil {
						t.Fatalf("%s query %d k=%d: %v", label, i, k, res.Err)
					}
					truth[i].assertExact(t, fmt.Sprintf("%s query %d k=%d", label, i, k), k, res.Neighbors)
				}
				res := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: 10, MinRecall: 0.9})
				if res.Err != nil {
					t.Fatalf("%s recall query %d: %v", label, i, res.Err)
				}
				if len(res.Neighbors) != 10 {
					t.Fatalf("%s recall query %d: %d neighbors, want 10", label, i, len(res.Neighbors))
				}
				seen := map[uint32]bool{}
				for _, nb := range res.Neighbors {
					if seen[nb.ID] || int(nb.ID) >= len(pts) || nb.Dist != truth[i].dists[nb.ID] {
						t.Fatalf("%s recall query %d: neighbor %+v is not a genuine point at its true distance", label, i, nb)
					}
					seen[nb.ID] = true
				}
			}
			if _, ok := part.(Centroid); ok {
				centroidPruned += reg.Counter("shard.pruned").Value()
			}
			c.Close()
		}
	}
	if centroidPruned == 0 {
		t.Fatal("no Centroid fleet skipped a shard: the exactness check never ran a pruned query")
	}

	// Inserts outside every box, under concurrent queries (run with
	// -race): each inserted point is found by a KNN at it, and the
	// grown fleet still answers exactly.
	c, err := New(Config{Shards: 4, Replicas: 2, Partitioner: Centroid{Seed: 103}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopQueries := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopQueries() // before c.Close, also when the test fails
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if res := c.Submit(engine.Query{Kind: engine.KNN, Point: qs[i%len(qs)], K: 10}); res.Err != nil {
				t.Errorf("concurrent query %d: %v", i, res.Err)
				return
			}
		}
	}()
	all := append([]vec.Point(nil), pts...)
	for i := 0; i < 40; i++ {
		x := pts[r.Intn(len(pts))].Clone()
		x[i%len(x)] = 1.1 + 0.01*float32(i)
		gids, err := c.Insert([]vec.Point{x})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		all = append(all, x)
		res := c.Submit(engine.Query{Kind: engine.KNN, Point: x, K: 1})
		if res.Err != nil {
			t.Fatalf("query at insert %d: %v", i, res.Err)
		}
		if len(res.Neighbors) != 1 || res.Neighbors[0].ID != gids[0] || res.Neighbors[0].Dist != 0 {
			t.Fatalf("query at insert %d (gid %d): got %+v", i, gids[0], res.Neighbors)
		}
	}
	stopQueries()
	for i, x := range all[len(pts):] {
		res := c.Submit(engine.Query{Kind: engine.KNN, Point: x, K: 10})
		if res.Err != nil {
			t.Fatalf("query after inserts %d: %v", i, res.Err)
		}
		newBruteForce(all, x).assertExact(t, fmt.Sprintf("query after inserts %d", i), 10, res.Neighbors)
	}
}

// TestInsertPlacesLikeBuild checks that inserts continue the build's
// placement instead of re-partitioning each batch on its own: one-point
// inserts into a RoundRobin fleet rotate across the shards, and a copy
// of a Centroid build point lands on that point's shard.
func TestInsertPlacesLikeBuild(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	pts := randPoints(r, 2000, 6)
	c, err := New(Config{Shards: 4, Replicas: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, p := range randPoints(r, 100, 6) {
		if _, err := c.Insert([]vec.Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.ShardSizes() {
		if n != 525 {
			t.Fatalf("round-robin shard sizes %v after 100 one-point inserts, want 525 each", c.ShardSizes())
		}
	}

	cad := dataset.GenCAD(105, 4000)
	part := Centroid{Seed: 106}
	assign, _ := part.Assign(cad, 4)
	cc, err := New(Config{Shards: 4, Replicas: 1, Partitioner: part}, cad)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for want := 0; want < 4; want++ {
		i := 0
		for assign[i] != want {
			i++
		}
		before := cc.ShardSizes()
		if _, err := cc.Insert([]vec.Point{cad[i].Clone()}); err != nil {
			t.Fatal(err)
		}
		after := cc.ShardSizes()
		for si := range after {
			grew := 0
			if si == want {
				grew = 1
			}
			if after[si]-before[si] != grew {
				t.Fatalf("copy of build point %d (shard %d): sizes %v -> %v", i, want, before, after)
			}
		}
	}
}

// TestShardPruningCutsLatency bounds the two-round KNN's gain on the
// simulated clock. A 4-shard Centroid fleet over clustered data must
// answer in at most 0.9x the mean latency of asking every shard at
// once, measured on an identically built twin (so neither side warms
// the other's buffer pools), and ask fewer than 4 shards per query on
// average. A RoundRobin fleet, whose boxes all cover the data, must
// stay within 1.02x of its one-round twin.
func TestShardPruningCutsLatency(t *testing.T) {
	db, qs := dataset.Split(dataset.GenCAD(107, 40120), 120)
	for _, tc := range []struct {
		part     Partitioner
		maxRatio float64
	}{
		{Centroid{Seed: 108}, 0.9},
		{RoundRobin{}, 1.02},
	} {
		reg := &obs.Registry{}
		c, err := New(Config{Shards: 4, Replicas: 1, Partitioner: tc.part, Registry: reg}, db)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := New(Config{Shards: 4, Replicas: 1, Partitioner: tc.part}, db)
		if err != nil {
			t.Fatal(err)
		}
		var pruned, oneRound float64
		for i, p := range qs {
			q := engine.Query{Kind: engine.KNN, Point: p, K: 10}
			res := c.Submit(q)
			if res.Err != nil {
				t.Fatalf("%s query %d: %v", tc.part.Name(), i, res.Err)
			}
			pruned += res.SimTime
			var slowest float64
			for si := 0; si < twin.Shards(); si++ {
				sres := twin.Engine(si, 0).Submit(q)
				if sres.Err != nil {
					t.Fatalf("%s twin query %d shard %d: %v", tc.part.Name(), i, si, sres.Err)
				}
				slowest = max(slowest, sres.SimTime)
			}
			oneRound += slowest
		}
		c.Close()
		twin.Close()
		ratio := pruned / oneRound
		fanout := float64(reg.Counter("shard.fanout").Value()) / float64(len(qs))
		t.Logf("%s: mean SimTime %.3f ms vs one round %.3f ms (%.3fx), fanout %.2f",
			tc.part.Name(), pruned/float64(len(qs))*1e3, oneRound/float64(len(qs))*1e3, ratio, fanout)
		if ratio > tc.maxRatio {
			t.Errorf("%s: two-round KNN at %.3fx the one-round latency, want <= %.2fx", tc.part.Name(), ratio, tc.maxRatio)
		}
		if _, ok := tc.part.(Centroid); ok && fanout >= 4 {
			t.Errorf("%s: mean fanout %.2f, want < 4", tc.part.Name(), fanout)
		}
	}
}
