package index_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// methodUnderTest pairs an access method with the store it was built on
// (sessions must come from the same store). The scan entry is first: it
// is the ground truth the others are compared against.
type methodUnderTest struct {
	name string
	idx  index.Index
	sto  *store.Store
}

// buildAll constructs every access method over the same point set, each
// on its own fresh simulated disk.
func buildAll(t *testing.T, pts []vec.Point) []methodUnderTest {
	t.Helper()
	var out []methodUnderTest

	sto := store.NewSim(store.DefaultConfig())
	sc, err := scan.Build(sto, pts, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, methodUnderTest{"Scan", sc, sto})

	sto = store.NewSim(store.DefaultConfig())
	iq, err := core.Build(sto, pts, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, methodUnderTest{"IQ-tree", iq, sto})

	sto = store.NewSim(store.DefaultConfig())
	xt, err := xtree.Build(sto, pts, xtree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, methodUnderTest{"X-tree", xt, sto})

	sto = store.NewSim(store.DefaultConfig())
	va, err := vafile.Build(sto, pts, vafile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, methodUnderTest{"VA-file", va, sto})
	return out
}

// TestCrossIndexEquivalence is the contract test behind the Index
// interface: all four access methods must answer exact similarity
// queries identically (modulo ordering among distance ties) because they
// index the same points under the same metric. The sequential scan is
// the ground truth.
func TestCrossIndexEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const n, dim, k, eps = 2000, 8, 10, 0.55
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	methods := buildAll(t, pts)

	queries := make([]vec.Point, 15)
	for i := range queries {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		queries[i] = p
	}
	w := vec.MBR{Lo: make(vec.Point, dim), Hi: make(vec.Point, dim)}
	for j := 0; j < dim; j++ {
		w.Lo[j], w.Hi[j] = 0.25, 0.75
	}

	for qi, q := range queries {
		var wantKNN []vec.Neighbor
		var wantRange, wantWindow map[uint32]bool
		for _, m := range methods {
			knn, err := m.idx.KNN(m.sto.NewSession(), q, k)
			if err != nil {
				t.Fatalf("%s KNN: %v", m.name, err)
			}
			if len(knn) != k {
				t.Fatalf("%s query %d: %d KNN results, want %d", m.name, qi, len(knn), k)
			}
			rng, err := m.idx.RangeSearch(m.sto.NewSession(), q, eps)
			if err != nil {
				t.Fatalf("%s RangeSearch: %v", m.name, err)
			}
			// The contract orders range answers by increasing distance.
			for i := 1; i < len(rng); i++ {
				if rng[i].Dist < rng[i-1].Dist {
					t.Fatalf("%s query %d: range answer %d at %v after %v", m.name, qi, i, rng[i].Dist, rng[i-1].Dist)
				}
			}
			win, err := m.idx.WindowQuery(m.sto.NewSession(), w)
			if err != nil {
				t.Fatalf("%s WindowQuery: %v", m.name, err)
			}

			// Every result must carry exact geometry and distance.
			for _, nb := range knn {
				if !pts[nb.ID].Equal(nb.Point) {
					t.Fatalf("%s query %d: ID %d geometry mismatch", m.name, qi, nb.ID)
				}
				if got := vec.Euclidean.Dist(q, nb.Point); got != nb.Dist {
					t.Fatalf("%s query %d: ID %d dist %v, exact %v", m.name, qi, nb.ID, nb.Dist, got)
				}
			}

			if m.name == "Scan" {
				wantKNN = knn
				wantRange = idSet(rng)
				wantWindow = idSet(win)
				continue
			}
			// KNN: identical sorted distance sequences (tie-tolerant — the
			// IDs at tied ranks may differ between methods).
			for i := range knn {
				if math.Abs(knn[i].Dist-wantKNN[i].Dist) > 1e-9 {
					t.Fatalf("%s query %d: KNN dist[%d]=%v, scan %v", m.name, qi, i, knn[i].Dist, wantKNN[i].Dist)
				}
			}
			// Untied ranks must agree on the ID, not just the distance.
			for i := range knn {
				tied := (i > 0 && knn[i-1].Dist == knn[i].Dist) ||
					(i+1 < len(knn) && knn[i+1].Dist == knn[i].Dist)
				if !tied && knn[i].ID != wantKNN[i].ID {
					t.Fatalf("%s query %d: KNN[%d] ID %d, scan %d", m.name, qi, i, knn[i].ID, wantKNN[i].ID)
				}
			}
			if got := idSet(rng); !sameSet(got, wantRange) {
				t.Fatalf("%s query %d: range IDs %v, scan %v", m.name, qi, sorted(got), sorted(wantRange))
			}
			if got := idSet(win); !sameSet(got, wantWindow) {
				t.Fatalf("%s query %d: window IDs %v, scan %v", m.name, qi, sorted(got), sorted(wantWindow))
			}
		}
	}
}

// TestShardedCrossIndexEquivalence extends the equivalence contract
// through the scatter-gather coordinator: partitioned serving over the
// IQ-tree must answer exactly like every unsharded access method —
// identical KNN distance sequences (IDs exact at untied ranks) and
// identical range/window ID sets — because sharding changes the
// physical layout, never the answer.
func TestShardedCrossIndexEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const n, dim, k, eps = 2000, 8, 10, 0.55
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	methods := buildAll(t, pts)

	c, err := shard.New(shard.Config{Shards: 4, Replicas: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := make([]vec.Point, 12)
	for i := range queries {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = r.Float32()
		}
		queries[i] = p
	}
	w := vec.MBR{Lo: make(vec.Point, dim), Hi: make(vec.Point, dim)}
	for j := 0; j < dim; j++ {
		w.Lo[j], w.Hi[j] = 0.25, 0.75
	}

	for qi, q := range queries {
		sknn := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
		srng := c.Submit(engine.Query{Kind: engine.Range, Point: q, Eps: eps})
		swin := c.Submit(engine.Query{Kind: engine.Window, Window: w})
		if sknn.Err != nil || srng.Err != nil || swin.Err != nil {
			t.Fatalf("sharded query %d: knn %v, range %v, window %v", qi, sknn.Err, srng.Err, swin.Err)
		}
		if len(sknn.Neighbors) != k {
			t.Fatalf("sharded query %d: %d KNN results, want %d", qi, len(sknn.Neighbors), k)
		}
		for _, nb := range sknn.Neighbors {
			if !pts[nb.ID].Equal(nb.Point) {
				t.Fatalf("sharded query %d: ID %d geometry mismatch", qi, nb.ID)
			}
			if got := vec.Euclidean.Dist(q, nb.Point); got != nb.Dist {
				t.Fatalf("sharded query %d: ID %d dist %v, exact %v", qi, nb.ID, nb.Dist, got)
			}
		}
		for _, m := range methods {
			knn, err := m.idx.KNN(m.sto.NewSession(), q, k)
			if err != nil {
				t.Fatalf("%s KNN: %v", m.name, err)
			}
			for i := range knn {
				if sknn.Neighbors[i].Dist != knn[i].Dist {
					t.Fatalf("sharded vs %s query %d: KNN dist[%d]=%v, want %v",
						m.name, qi, i, sknn.Neighbors[i].Dist, knn[i].Dist)
				}
				tied := (i > 0 && knn[i-1].Dist == knn[i].Dist) ||
					(i+1 < len(knn) && knn[i+1].Dist == knn[i].Dist)
				if !tied && sknn.Neighbors[i].ID != knn[i].ID {
					t.Fatalf("sharded vs %s query %d: KNN[%d] ID %d, want %d",
						m.name, qi, i, sknn.Neighbors[i].ID, knn[i].ID)
				}
			}
			rng, err := m.idx.RangeSearch(m.sto.NewSession(), q, eps)
			if err != nil {
				t.Fatalf("%s RangeSearch: %v", m.name, err)
			}
			if got := idSet(srng.Neighbors); !sameSet(got, idSet(rng)) {
				t.Fatalf("sharded vs %s query %d: range IDs differ", m.name, qi)
			}
			win, err := m.idx.WindowQuery(m.sto.NewSession(), w)
			if err != nil {
				t.Fatalf("%s WindowQuery: %v", m.name, err)
			}
			if got := idSet(swin.Neighbors); !sameSet(got, idSet(win)) {
				t.Fatalf("sharded vs %s query %d: window IDs differ", m.name, qi)
			}
		}
	}
}

func idSet(nbs []vec.Neighbor) map[uint32]bool {
	m := make(map[uint32]bool, len(nbs))
	for _, nb := range nbs {
		m[nb.ID] = true
	}
	return m
}

func sameSet(a, b map[uint32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

func sorted(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
