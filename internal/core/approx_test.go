package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/vec"
)

// checkGenuine verifies the structural contract of an approximate
// answer: exactly k distinct database points, each reported at its true
// distance, in non-decreasing distance order. Approximate termination
// may substitute farther points for near ones but must never fabricate.
func checkGenuine(t *testing.T, pts []vec.Point, q vec.Point, res []Neighbor, k int, met vec.Metric) {
	t.Helper()
	if len(res) != k {
		t.Fatalf("got %d results, want %d", len(res), k)
	}
	seen := make(map[uint32]bool, k)
	prev := math.Inf(-1)
	for i, nb := range res {
		if seen[nb.ID] {
			t.Fatalf("rank %d: duplicate ID %d", i, nb.ID)
		}
		seen[nb.ID] = true
		if nb.Dist < prev {
			t.Fatalf("rank %d: distances out of order: %v after %v", i, nb.Dist, prev)
		}
		prev = nb.Dist
		if int(nb.ID) >= len(pts) {
			t.Fatalf("rank %d: fabricated ID %d", i, nb.ID)
		}
		if td := met.Dist(q, pts[nb.ID]); math.Abs(nb.Dist-td) > 1e-5 {
			t.Fatalf("rank %d: ID %d reported at %v, true distance %v", i, nb.ID, nb.Dist, td)
		}
	}
}

// recallOf returns |approx ∩ exact| / |exact| by ID.
func recallOf(exact, approx []Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	ids := make(map[uint32]bool, len(exact))
	for _, nb := range exact {
		ids[nb.ID] = true
	}
	hit := 0
	for _, nb := range approx {
		if ids[nb.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// TestKNNApproxFullRecallBitIdentical: MinRecall = 1 arms the
// approximate machinery (ε = 0) but must be bit-for-bit identical to
// exact execution — same neighbors, same distances, and the same
// simulated charges down to the session Stats.
func TestKNNApproxFullRecallBitIdentical(t *testing.T) {
	for _, opt := range []Options{DefaultOptions(), func() Options {
		o := DefaultOptions()
		o.OptimizedIO = false
		return o
	}()} {
		r := rand.New(rand.NewSource(1))
		pts := randPoints(r, 3000, 8)
		tr := buildTree(t, pts, opt)
		queries := randPoints(r, 25, 8)
		for qi, q := range queries {
			se := tr.sto.NewSession()
			exact, err := tr.KNN(se, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sa := tr.sto.NewSession()
			approx, err := tr.KNNApprox(sa, q, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(exact) != len(approx) {
				t.Fatalf("query %d: %d vs %d results", qi, len(exact), len(approx))
			}
			for i := range exact {
				if exact[i].ID != approx[i].ID || exact[i].Dist != approx[i].Dist {
					t.Fatalf("query %d rank %d: exact (%d, %v), approx (%d, %v)",
						qi, i, exact[i].ID, exact[i].Dist, approx[i].ID, approx[i].Dist)
				}
			}
			if se.Stats != sa.Stats {
				t.Fatalf("query %d: exact stats %+v, approx stats %+v — MinRecall=1 must not change the physical plan",
					qi, se.Stats, sa.Stats)
			}
		}
	}
}

// TestKNNApproxSubsetWithSubstitutions: ε > 0 answers are structurally
// sound (genuine points at true distances), never beat the exact kth
// distance, and hit the recall target on average across a workload.
func TestKNNApproxSubsetWithSubstitutions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 4000, 8)
	tr := buildTree(t, pts, DefaultOptions())
	queries := randPoints(r, 40, 8)
	met := tr.Options().Metric
	const k = 10

	for _, minRecall := range []float64{0.95, 0.8, 0.5} {
		sumRecall := 0.0
		for _, q := range queries {
			exact, err := tr.KNN(tr.sto.NewSession(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := tr.KNNApprox(tr.sto.NewSession(), q, k, minRecall)
			if err != nil {
				t.Fatal(err)
			}
			checkGenuine(t, pts, q, approx, k, met)
			if approx[k-1].Dist < exact[k-1].Dist-1e-9 {
				t.Fatalf("approximate kth distance %v beats exact %v", approx[k-1].Dist, exact[k-1].Dist)
			}
			sumRecall += recallOf(exact, approx)
		}
		mean := sumRecall / float64(len(queries))
		// The estimator targets expected recall; allow modeling slack but
		// catch gross misbehavior.
		if mean < minRecall-0.15 {
			t.Fatalf("MinRecall %v: mean measured recall %v", minRecall, mean)
		}
	}
}

// TestKNNApproxQuarantineInterplay: approximate execution composes with
// the fault layer — after at-rest corruption, approximate queries still
// answer from genuine points (degraded reads through the exact shadow)
// and never surface corrupt data.
func TestKNNApproxQuarantineInterplay(t *testing.T) {
	sto, tr, pts := buildCheckedTree(t, 6, 2500, 8, DefaultOptions())
	comp := compressedPages(tr)
	if len(comp) < 3 {
		t.Fatalf("only %d compressed pages", len(comp))
	}
	for _, qpos := range comp[:3] {
		flipQPageBit(t, sto, qpos)
	}
	r := rand.New(rand.NewSource(7))
	queries := randPoints(r, 20, 8)
	met := tr.Options().Metric
	degraded := 0
	for _, q := range queries {
		trace := obs.NewQueryTrace("")
		s := sto.NewSession()
		s.SetTrace(trace)
		res, err := tr.KNNApprox(s, q, 5, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		checkGenuine(t, pts, q, res, 5, met)
		degraded += trace.DegradedReads
	}
	if degraded == 0 {
		t.Fatal("no approximate query paid a degraded read; corruption was not exercised")
	}
}
