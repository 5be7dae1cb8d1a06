package pagesched

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
)

// TestBatchAllProperties is the cross-query planner's contract under
// random wants and access probabilities:
//
//   - spans are ascending, disjoint, and non-adjacent (no block is
//     fetched twice within a round, and no seek-free merge is missed),
//   - every wanted page is covered,
//   - every span contains at least one wanted page (no spurious reads),
//   - spans stay inside the file.
func TestBatchAllProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		numPages := 1 + rng.Intn(400)
		probs := make([]float64, numPages)
		for i := range probs {
			switch rng.Intn(3) {
			case 0:
				probs[i] = 0
			case 1:
				probs[i] = rng.Float64()
			default:
				probs[i] = 1
			}
		}
		s := &Scheduler{
			Cfg:      store.Config{BlockSize: 4096, Seek: 0.005 + rng.Float64()*0.02, Xfer: 0.0005 + rng.Float64()*0.002},
			NumPages: numPages,
			Prob:     func(pos int) float64 { return probs[pos] },
		}
		nw := 1 + rng.Intn(20)
		wants := make([]int, nw)
		for i := range wants {
			wants[i] = rng.Intn(numPages)
			if i > 0 && rng.Intn(4) == 0 {
				wants[i] = wants[i-1] // duplicates allowed
			}
		}

		sort.Ints(wants)
		spans := s.BatchAll(nil, wants)
		for i, sp := range spans {
			if sp.First < 0 || sp.Last >= numPages || sp.First > sp.Last {
				t.Fatalf("trial %d: span %d out of range: %+v (numPages=%d)", trial, i, sp, numPages)
			}
			if i > 0 && sp.First <= spans[i-1].Last+1 {
				t.Fatalf("trial %d: spans %d and %d overlap or touch: %+v, %+v",
					trial, i-1, i, spans[i-1], sp)
			}
		}
		for _, w := range wants {
			covered := false
			for _, sp := range spans {
				if w >= sp.First && w <= sp.Last {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: want %d not covered by %+v", trial, w, spans)
			}
		}
		for i, sp := range spans {
			j := sort.SearchInts(wants, sp.First)
			if j >= len(wants) || wants[j] > sp.Last {
				t.Fatalf("trial %d: span %d (%+v) contains no want", trial, i, sp)
			}
		}
	}
}

// TestBatchAllSingleWantDegeneratesToBatch pins the single-want
// degeneracy: with exactly one want (a nearest-neighbor query's pivot),
// the round plan is exactly the single-pivot batch of the
// time-optimized nearest-neighbor algorithm.
func TestBatchAllSingleWantDegeneratesToBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		numPages := 1 + rng.Intn(200)
		probs := make([]float64, numPages)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		s := &Scheduler{
			Cfg:      store.Config{BlockSize: 4096, Seek: 0.01, Xfer: 0.001},
			NumPages: numPages,
			Prob:     func(pos int) float64 { return probs[pos] },
		}
		pivot := rng.Intn(numPages)
		first, last := s.Batch(pivot)
		spans := s.BatchAll(nil, []int{pivot})
		if len(spans) != 1 || spans[0].First != first || spans[0].Last != last {
			t.Fatalf("trial %d: BatchAll(%d) = %+v, Batch = [%d,%d]", trial, pivot, spans, first, last)
		}
	}
}

// TestBatchAllKnownSetMatchesPlanKnownSet pins the known-set degeneracy:
// with access probability 1 on the wanted pages and 0 everywhere else,
// BatchAll's cumulated cost balance over-reads a gap exactly when its
// transfer is cheaper than a seek, so its spans are the optimal
// known-set schedule of paper Fig. 1 (PlanKnownSet, the test oracle).
func TestBatchAllKnownSetMatchesPlanKnownSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	def := store.DefaultConfig()
	for trial := 0; trial < 1000; trial++ {
		numPages := 1 + rng.Intn(300)
		cfg := def
		cfg.Seek = def.Seek * (0.25 + rng.Float64()*2)
		cfg.Xfer = def.Xfer * (0.25 + rng.Float64()*2)
		want := make([]bool, numPages)
		var wants, blocks []int
		for pos := range want {
			if rng.Intn(1+rng.Intn(30)) == 0 {
				want[pos] = true
				wants = append(wants, pos)
				blocks = append(blocks, pos)
			}
		}
		s := &Scheduler{
			Cfg:      cfg,
			NumPages: numPages,
			Prob: func(pos int) float64 {
				if want[pos] {
					return 1
				}
				return 0
			},
		}
		spans := s.BatchAll(nil, wants)
		runs := PlanKnownSet(blocks, 1, cfg)
		if len(spans) != len(runs) {
			t.Fatalf("trial %d: BatchAll %+v, PlanKnownSet %+v", trial, spans, runs)
		}
		for i, r := range runs {
			if spans[i].First != r.Pos || spans[i].Last-spans[i].First+1 != r.Blocks {
				t.Fatalf("trial %d span %d: BatchAll %+v, PlanKnownSet %+v", trial, i, spans, runs)
			}
		}
	}
}
