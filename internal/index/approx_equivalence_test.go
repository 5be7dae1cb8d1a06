package index_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/vec"
)

// TestApproxCrossIndexFullRecall extends the equivalence contract
// through the approximate knob at its exact-degenerate setting: an
// engine query with MinRecall = 1 (ε = 0) must answer bit-identically
// to the plain exact query on every access method — the IQ-tree arms
// the probability-bounded stopping rule but the rule never fires, and
// the other methods serve the query through the exact fallback.
func TestApproxCrossIndexFullRecall(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n, dim, k = 2000, 8, 10
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	methods := buildAll(t, pts)

	queries := make([]vec.Point, 10)
	for i := range queries {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		queries[i] = p
	}

	for _, m := range methods {
		e := engine.New(m.sto, m.idx, 2)
		for qi, q := range queries {
			exact := e.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
			approx := e.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k, MinRecall: 1})
			if exact.Err != nil || approx.Err != nil {
				t.Fatalf("%s query %d: exact %v, approx %v", m.name, qi, exact.Err, approx.Err)
			}
			if len(exact.Neighbors) != len(approx.Neighbors) {
				t.Fatalf("%s query %d: %d vs %d results", m.name, qi, len(exact.Neighbors), len(approx.Neighbors))
			}
			for i := range exact.Neighbors {
				if exact.Neighbors[i].ID != approx.Neighbors[i].ID ||
					exact.Neighbors[i].Dist != approx.Neighbors[i].Dist {
					t.Fatalf("%s query %d rank %d: exact (%d, %v), MinRecall=1 (%d, %v)",
						m.name, qi, i, exact.Neighbors[i].ID, exact.Neighbors[i].Dist,
						approx.Neighbors[i].ID, approx.Neighbors[i].Dist)
				}
			}
		}
		e.Close()
	}
}

// TestApproxShardedEquivalence runs the approximate knob through the
// scatter-gather coordinator: MinRecall = 1 must match the plain
// sharded answer bit-for-bit, and relaxed settings (ε > 0 or a page
// budget) must still return k genuine indexed points at their true
// distances — the merge protocol is unchanged, so approximation can
// substitute neighbors but never fabricate them.
func TestApproxShardedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	const n, dim, k = 2000, 8, 10
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	c, err := shard.New(shard.Config{Shards: 4, Replicas: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for qi := 0; qi < 10; qi++ {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = r.Float32()
		}
		exact := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
		full := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k, MinRecall: 1})
		if exact.Err != nil || full.Err != nil {
			t.Fatalf("query %d: exact %v, MinRecall=1 %v", qi, exact.Err, full.Err)
		}
		if len(exact.Neighbors) != len(full.Neighbors) {
			t.Fatalf("query %d: %d vs %d results", qi, len(exact.Neighbors), len(full.Neighbors))
		}
		for i := range exact.Neighbors {
			if exact.Neighbors[i].ID != full.Neighbors[i].ID ||
				exact.Neighbors[i].Dist != full.Neighbors[i].Dist {
				t.Fatalf("query %d rank %d: exact (%d, %v), MinRecall=1 (%d, %v)",
					qi, i, exact.Neighbors[i].ID, exact.Neighbors[i].Dist,
					full.Neighbors[i].ID, full.Neighbors[i].Dist)
			}
		}

		res := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k, MinRecall: 0.8})
		if res.Err != nil {
			t.Fatalf("query %d relaxed: %v", qi, res.Err)
		}
		if len(res.Neighbors) != k {
			t.Fatalf("query %d relaxed: %d results, want %d", qi, len(res.Neighbors), k)
		}
		seen := make(map[uint32]bool, k)
		prev := math.Inf(-1)
		for i, nb := range res.Neighbors {
			if int(nb.ID) >= len(pts) {
				t.Fatalf("query %d relaxed rank %d: fabricated ID %d", qi, i, nb.ID)
			}
			if seen[nb.ID] {
				t.Fatalf("query %d relaxed rank %d: duplicate ID %d", qi, i, nb.ID)
			}
			seen[nb.ID] = true
			if nb.Dist < prev {
				t.Fatalf("query %d relaxed rank %d: out of order", qi, i)
			}
			prev = nb.Dist
			if td := vec.Euclidean.Dist(q, pts[nb.ID]); math.Abs(nb.Dist-td) > 1e-5 {
				t.Fatalf("query %d relaxed rank %d: ID %d at %v, true %v", qi, i, nb.ID, nb.Dist, td)
			}
		}
		// The relaxed kth distance can never beat the exact kth.
		if res.Neighbors[k-1].Dist < exact.Neighbors[k-1].Dist-1e-9 {
			t.Fatalf("query %d relaxed: kth %v beats exact %v", qi, res.Neighbors[k-1].Dist, exact.Neighbors[k-1].Dist)
		}
	}
}
