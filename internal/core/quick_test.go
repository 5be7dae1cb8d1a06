package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
	"repro/internal/vec"
)

// TestQuickNNCorrectness drives the whole stack with testing/quick:
// random point sets of random shapes, random queries, NN must equal
// brute force.
func TestQuickNNCorrectness(t *testing.T) {
	f := func(seed int64, nSeed uint16, dSeed, kSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + int(nSeed)%2000
		d := 1 + int(dSeed)%12
		k := 1 + int(kSeed)%8
		pts := randPoints(r, n, d)
		sto := store.NewSim(store.DefaultConfig())
		tr, err := Build(sto, pts, DefaultOptions())
		if err != nil {
			return false
		}
		q := randPoints(r, 1, d)[0]
		got, err := tr.KNN(sto.NewSession(), q, k)
		if err != nil {
			return false
		}
		want := bruteKNN(pts, q, k, vec.Euclidean)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVariantEquivalence: for random workloads, every IQ-tree build
// variant must return the same k-NN distance multiset.
func TestQuickVariantEquivalence(t *testing.T) {
	f := func(seed int64, dSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + int(dSeed)%8
		pts := randPoints(r, 1200, d)
		queries := randPoints(r, 4, d)

		variants := []Options{
			DefaultOptions(),
			{Metric: vec.Euclidean, Quantize: true, OptimizedIO: false},
			{Metric: vec.Euclidean, Quantize: false, OptimizedIO: true},
			{Metric: vec.Euclidean, Quantize: true, OptimizedIO: true, FixedBits: 4},
			{Metric: vec.Euclidean, Quantize: true, OptimizedIO: true, FractalDim: float64(d)},
		}
		var ref [][]float64
		for vi, opt := range variants {
			sto := store.NewSim(store.DefaultConfig())
			tr, err := Build(sto, pts, opt)
			if err != nil {
				return false
			}
			for qi, q := range queries {
				res, err := tr.KNN(sto.NewSession(), q, 3)
				if err != nil {
					return false
				}
				ds := make([]float64, len(res))
				for i, nb := range res {
					ds[i] = nb.Dist
				}
				if vi == 0 {
					ref = append(ref, ds)
					continue
				}
				if len(ds) != len(ref[qi]) {
					return false
				}
				for i := range ds {
					if math.Abs(ds[i]-ref[qi][i]) > 1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeConsistency: range results must equal the k-NN prefix
// property — every point returned by KNN(k) within eps must also be in
// RangeSearch(eps), and counts must match brute force.
func TestQuickRangeConsistency(t *testing.T) {
	f := func(seed int64, epsSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pts := randPoints(r, 800, 5)
		eps := 0.1 + float64(epsSeed)/256.0*0.5
		sto := store.NewSim(store.DefaultConfig())
		tr, err := Build(sto, pts, DefaultOptions())
		if err != nil {
			return false
		}
		q := randPoints(r, 1, 5)[0]
		in, err := tr.RangeSearch(sto.NewSession(), q, eps)
		if err != nil {
			return false
		}
		want := 0
		for _, p := range pts {
			if vec.Euclidean.Dist(q, p) <= eps {
				want++
			}
		}
		if len(in) != want {
			return false
		}
		seen := map[uint32]bool{}
		for _, nb := range in {
			seen[nb.ID] = true
		}
		knn, err := tr.KNN(sto.NewSession(), q, 10)
		if err != nil {
			return false
		}
		for _, nb := range knn {
			if nb.Dist <= eps-1e-9 && !seen[nb.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
