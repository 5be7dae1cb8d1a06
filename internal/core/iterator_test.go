package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

func TestIteratorFullRanking(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 1200, 6)
	tr := buildTree(t, pts, DefaultOptions())
	q := randPoints(r, 1, 6)[0]

	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = vec.Euclidean.Dist(q, p)
	}
	sort.Float64s(want)

	it := tr.NewNNIterator(tr.sto.NewSession(), q)
	for i := 0; i < len(pts); i++ {
		nb, ok := it.Next()
		if !ok {
			t.Fatalf("iterator exhausted after %d of %d: %v", i, len(pts), it.Err())
		}
		if math.Abs(nb.Dist-want[i]) > 1e-5 {
			t.Fatalf("rank %d: dist %.7f, want %.7f", i, nb.Dist, want[i])
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator returned more points than the database holds")
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorPrefixMatchesKNN(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 3000, 10)
	tr := buildTree(t, pts, DefaultOptions())
	for qi, q := range randPoints(r, 5, 10) {
		knn := mustKNN(t, tr, q, 12)
		it := tr.NewNNIterator(tr.sto.NewSession(), q)
		for i := 0; i < 12; i++ {
			nb, ok := it.Next()
			if !ok {
				t.Fatalf("query %d: iterator dry at %d", qi, i)
			}
			if math.Abs(nb.Dist-knn[i].Dist) > 1e-6 {
				t.Fatalf("query %d rank %d: %.7f vs KNN %.7f", qi, i, nb.Dist, knn[i].Dist)
			}
		}
	}
}

func TestIteratorCostGrowsWithPulls(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 5000, 8)
	tr := buildTree(t, pts, DefaultOptions())
	q := randPoints(r, 1, 8)[0]

	s := tr.sto.NewSession()
	it := tr.NewNNIterator(s, q)
	it.Next()
	after1 := s.Time()
	for i := 0; i < 500; i++ {
		it.Next()
	}
	after500 := s.Time()
	if after500 <= after1 {
		t.Fatalf("pulling 500 more neighbors cost nothing: %f vs %f", after500, after1)
	}
	// The first pull must not have paid for the whole database.
	sFull := tr.sto.NewSession()
	full := tr.NewNNIterator(sFull, q)
	for {
		if _, ok := full.Next(); !ok {
			break
		}
	}
	if after1 >= sFull.Time() {
		t.Fatalf("first pull cost the full enumeration: %f vs %f", after1, sFull.Time())
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorVariants(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 1000, 5)
	for _, opt := range []Options{
		DefaultOptions(),
		{Metric: vec.Maximum, QPageBlocks: 1, Quantize: true, OptimizedIO: true},
		{Metric: vec.Euclidean, QPageBlocks: 1, Quantize: false, OptimizedIO: false},
	} {
		tr := buildTree(t, pts, opt)
		q := randPoints(r, 1, 5)[0]
		want := make([]float64, len(pts))
		for i, p := range pts {
			want[i] = opt.Metric.Dist(q, p)
		}
		sort.Float64s(want)
		it := tr.NewNNIterator(tr.sto.NewSession(), q)
		for i := 0; i < 50; i++ {
			nb, ok := it.Next()
			if !ok || math.Abs(nb.Dist-want[i]) > 1e-5 {
				t.Fatalf("opt %+v rank %d: %+v want %.7f", opt, i, nb, want[i])
			}
		}
	}
}

// TestIteratorDegradedRead: the iterator runs on the same executor as
// KNN, so a corrupt quantized page is quarantined and served from its
// exact shadow instead of ending the ranking with a checksum error.
func TestIteratorDegradedRead(t *testing.T) {
	sto, tr, pts := buildCheckedTree(t, 5, 1500, 6, DefaultOptions())
	q := randPoints(rand.New(rand.NewSource(6)), 1, 6)[0]
	rank := func() []Neighbor {
		it := tr.NewNNIterator(sto.NewSession(), q)
		var out []Neighbor
		for {
			nb, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, nb)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("ranking after %d neighbors: %v", len(out), err)
		}
		return out
	}
	clean := rank()
	if len(clean) != len(pts) {
		t.Fatalf("clean ranking has %d of %d points", len(clean), len(pts))
	}
	flipQPageBit(t, sto, compressedPages(tr)[0], tr.Options().QPageBlocks)
	got := rank()
	if len(got) != len(clean) {
		t.Fatalf("degraded ranking has %d points, clean %d", len(got), len(clean))
	}
	for i := range clean {
		if got[i].ID != clean[i].ID || got[i].Dist != clean[i].Dist {
			t.Fatalf("rank %d: degraded (%d, %v), clean (%d, %v)", i, got[i].ID, got[i].Dist, clean[i].ID, clean[i].Dist)
		}
	}
	if len(tr.QuarantinedPages()) == 0 {
		t.Fatal("the corrupt page was not quarantined")
	}
}
