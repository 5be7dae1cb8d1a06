package shard

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/vec"
)

// TestMergeKNNBoundaryTies pins the k-boundary cut with duplicate
// distances across shards: candidates tied at the boundary distance are
// admitted in ascending global ID order, so the merge is deterministic
// no matter how the tied candidates are spread over shards.
func TestMergeKNNBoundaryTies(t *testing.T) {
	nb := func(id uint32, d float64) vec.Neighbor { return vec.Neighbor{ID: id, Dist: d} }
	lists := [][]vec.Neighbor{
		{nb(10, 0.1), nb(40, 0.5), nb(12, 0.5)}, // shard list with unsorted ties
		{nb(7, 0.5), nb(30, 0.5)},
		{nb(2, 0.3), nb(99, 0.5)},
	}
	got := merge(engine.KNN, lists, 4)
	want := []vec.Neighbor{nb(10, 0.1), nb(2, 0.3), nb(7, 0.5), nb(12, 0.5)}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: got (%d,%v), want (%d,%v)", i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestMergeKNNShortLists covers k exceeding the candidate supply: empty
// shard lists contribute nothing, and k larger than the union returns
// every candidate in canonical order.
func TestMergeKNNShortLists(t *testing.T) {
	nb := func(id uint32, d float64) vec.Neighbor { return vec.Neighbor{ID: id, Dist: d} }
	lists := [][]vec.Neighbor{
		{nb(5, 0.2)},
		nil,
		{},
		{nb(1, 0.9), nb(3, 0.4)},
	}
	got := merge(engine.KNN, lists, 10)
	want := []vec.Neighbor{nb(5, 0.2), nb(3, 0.4), nb(1, 0.9)}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := merge(engine.KNN, nil, 3); len(got) != 0 {
		t.Fatalf("merge of no lists returned %d results", len(got))
	}
}

// skewed assigns every point to shard 0 except one middle point on
// shard 1, leaving shard 2 permanently empty.
type skewed struct{}

func (skewed) Name() string { return "skewed" }
func (skewed) Assign(pts []vec.Point, shards int) ([]int, Placer) {
	out := make([]int, len(pts))
	if shards > 1 && len(pts) > 2 {
		out[len(pts)/2] = 1
	}
	return out, func(vec.Point, uint32) int { return 0 }
}

// TestShardEmptyShard runs a topology with a permanently empty shard:
// queries must answer exactly (the empty shard contributes an empty
// set), and the empty shard must hold no engines.
func TestShardEmptyShard(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	pts := randPoints(r, 900, 5)
	batch := mixedQueries(r, 15, 5)
	want := unshardedBaseline(t, pts, batch)

	c, err := New(Config{Shards: 3, Replicas: 2, Partitioner: skewed{}}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sizes := c.ShardSizes()
	if sizes[2] != 0 {
		t.Fatalf("shard sizes %v, want an empty shard 2", sizes)
	}
	if c.Engine(2, 0) != nil {
		t.Fatal("empty shard built an engine")
	}
	for i, res := range c.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		assertSameResults(t, "empty-shard", i, batch[i].Kind, res.Neighbors, want[i])
	}
}

// TestShardKExceedsShardSize covers k far beyond every shard's point
// count (and beyond the whole dataset): per-shard lists are capped at
// the shard size, and the merge still returns the exact global answer.
func TestShardKExceedsShardSize(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	pts := randPoints(r, 40, 4)
	c, err := New(Config{Shards: 8, Replicas: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range c.ShardSizes() {
		if n != 5 {
			t.Fatalf("shard sizes %v, want 5 points each", c.ShardSizes())
		}
	}

	q := pts[3]
	for _, k := range []int{7, 25, 40, 100} {
		res := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
		if res.Err != nil {
			t.Fatalf("k=%d: %v", k, res.Err)
		}
		// Brute-force canonical ground truth over the whole dataset.
		want := make([]vec.Neighbor, len(pts))
		for i, p := range pts {
			want[i] = vec.Neighbor{ID: uint32(i), Dist: vec.Euclidean.Dist(q, p), Point: p}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		if k < len(want) {
			want = want[:k]
		}
		if len(res.Neighbors) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(res.Neighbors), len(want))
		}
		for j := range want {
			if res.Neighbors[j].ID != want[j].ID || res.Neighbors[j].Dist != want[j].Dist {
				t.Fatalf("k=%d result %d: got (%d,%v), want (%d,%v)",
					k, j, res.Neighbors[j].ID, res.Neighbors[j].Dist, want[j].ID, want[j].Dist)
			}
		}
	}
}

// TestShardDuplicateDistancesAtBoundary runs the end-to-end tie case:
// duplicated points spread across shards produce equal distances
// straddling the global k boundary. Exact KNN semantics require the
// distance sequence to match brute force exactly and every returned ID
// to carry its claimed distance; the canonical merge additionally keeps
// the output ordered (Dist, ID).
func TestShardDuplicateDistancesAtBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	base := randPoints(r, 300, 4)
	// Duplicate a handful of points several times; round-robin spreads
	// the copies across shards, so ties meet only at the merge.
	pts := append([]vec.Point(nil), base...)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 12; i++ {
			pts = append(pts, base[i].Clone())
		}
	}
	c, err := New(Config{Shards: 4, Replicas: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for qi := 0; qi < 8; qi++ {
		q := base[qi] // query at a duplicated point: distance-0 ties
		for _, k := range []int{2, 3, 4, 5} {
			res := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
			if res.Err != nil {
				t.Fatalf("q%d k=%d: %v", qi, k, res.Err)
			}
			dists := make([]float64, len(pts))
			for i, p := range pts {
				dists[i] = vec.Euclidean.Dist(q, p)
			}
			wantDists := append([]float64(nil), dists...)
			sort.Float64s(wantDists)
			if len(res.Neighbors) != k {
				t.Fatalf("q%d k=%d: %d results", qi, k, len(res.Neighbors))
			}
			for j, nb := range res.Neighbors {
				if nb.Dist != wantDists[j] {
					t.Fatalf("q%d k=%d result %d: dist %v, want %v", qi, k, j, nb.Dist, wantDists[j])
				}
				if nb.Dist != dists[nb.ID] {
					t.Fatalf("q%d k=%d result %d: ID %d does not carry its claimed distance", qi, k, j, nb.ID)
				}
				if j > 0 {
					prev := res.Neighbors[j-1]
					if prev.Dist > nb.Dist || (prev.Dist == nb.Dist && prev.ID >= nb.ID) {
						t.Fatalf("q%d k=%d: results not in canonical (Dist, ID) order at %d", qi, k, j)
					}
				}
			}
		}
	}
}

// TestShardSingleShardBitIdentical pins the degenerate topology: one
// shard, one replica must behave exactly like the unsharded engine —
// same results and the same simulated charges (the coordinator adds
// routing, not I/O).
func TestShardSingleShardBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	pts := randPoints(r, 1500, 6)
	batch := mixedQueries(r, 18, 6)
	want := unshardedBaseline(t, pts, batch)

	c, err := New(Config{Shards: 1, Replicas: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results := c.SubmitBatch(batch)

	// Rebuild the identical unsharded engine to compare simulated charges
	// query by query (unshardedBaseline keeps its stats private).
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		assertSameResults(t, "single-shard", i, batch[i].Kind, res.Neighbors, want[i])
		if res.Shards[0].Stats != res.Stats {
			t.Fatalf("query %d: coordinator stats %+v != the only shard's %+v", i, res.Stats, res.Shards[0].Stats)
		}
		if res.SimTime != res.Shards[0].SimTime {
			t.Fatalf("query %d: SimTime %g != the only shard's %g", i, res.SimTime, res.Shards[0].SimTime)
		}
	}
}
