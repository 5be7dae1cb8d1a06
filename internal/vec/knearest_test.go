package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestKNearestAgainstSortedReference offers seeded random streams with
// many equal distances to collectors of every k from 1 to past the
// stream's length and checks them, after every offer, against a sorted
// reference of the kept distances: the same decision, the same kept
// distances and bound, kept neighbors that were offered, and a kept set
// that only changes when the offer is kept. At the end the output must
// ascend through the reference.
func TestKNearestAgainstSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var c KNearest
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		levels := 1 + r.Intn(6) // few distinct distances: many ties
		stream := make([]Neighbor, n)
		for i := range stream {
			stream[i] = Neighbor{ID: uint32(i), Dist: float64(r.Intn(levels))}
		}
		for k := 1; k <= n+2; k++ {
			c.Reset(k)
			var ref []float64 // kept distances, ascending
			for _, nb := range stream {
				before := keptIDs(&c)
				want := len(ref) < k || nb.Dist < ref[len(ref)-1]
				if got := c.Offer(nb); got != want {
					t.Fatalf("trial %d k=%d: Offer(%v) = %v, want %v", trial, k, nb, got, want)
				}
				if want {
					if len(ref) == k {
						ref = ref[:k-1]
					}
					at := sort.SearchFloat64s(ref, nb.Dist)
					ref = append(ref[:at], append([]float64{nb.Dist}, ref[at:]...)...)
				} else if after := keptIDs(&c); !sameIDs(before, after) {
					t.Fatalf("trial %d k=%d: rejected offer %v changed the kept set %v -> %v", trial, k, nb, before, after)
				}
				checkKept(t, &c, stream, ref, k)
			}
			out := c.Sorted()
			if len(out) != len(ref) || c.Len() != 0 {
				t.Fatalf("trial %d k=%d: Sorted gave %d neighbors (left %d), want %d", trial, k, len(out), c.Len(), len(ref))
			}
			for i, nb := range out {
				if nb.Dist != ref[i] {
					t.Fatalf("trial %d k=%d: Sorted[%d].Dist = %v, want %v", trial, k, i, nb.Dist, ref[i])
				}
			}
		}
	}
}

// checkKept compares the collector's kept neighbors and bound with the
// reference's kept distances.
func checkKept(t *testing.T, c *KNearest, stream []Neighbor, ref []float64, k int) {
	t.Helper()
	if c.Len() != len(ref) {
		t.Fatalf("k=%d: kept %d, want %d", k, c.Len(), len(ref))
	}
	got := make([]float64, 0, len(c.h))
	seen := map[uint32]bool{}
	for _, nb := range c.h {
		if seen[nb.ID] || stream[nb.ID].Dist != nb.Dist {
			t.Fatalf("k=%d: kept %v is a duplicate or was never offered", k, nb)
		}
		seen[nb.ID] = true
		got = append(got, nb.Dist)
	}
	sort.Float64s(got)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("k=%d: kept distances %v, want %v", k, got, ref)
		}
	}
	want := math.Inf(1)
	if len(ref) == k {
		want = ref[k-1]
	}
	if b := c.Bound(); b != want {
		t.Fatalf("k=%d: Bound() = %v, want %v", k, b, want)
	}
}

func keptIDs(c *KNearest) map[uint32]bool {
	m := make(map[uint32]bool, c.Len())
	for _, nb := range c.h {
		m[nb.ID] = true
	}
	return m
}

func sameIDs(a, b map[uint32]bool) bool {
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

// TestKNearestTieKeepsEarlier: a neighbor at exactly the k-th distance
// does not displace the one kept there first.
func TestKNearestTieKeepsEarlier(t *testing.T) {
	var c KNearest
	c.Reset(2)
	c.Offer(Neighbor{ID: 1, Dist: 1})
	c.Offer(Neighbor{ID: 2, Dist: 3})
	if c.Offer(Neighbor{ID: 3, Dist: 3}) {
		t.Fatal("a neighbor at the k-th distance was kept")
	}
	out := c.Sorted()
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 2 {
		t.Fatalf("kept %v, want IDs 1 and 2", out)
	}
}

// TestKNearestWarmAllocs: resetting and refilling a warmed collector
// allocates nothing.
func TestKNearestWarmAllocs(t *testing.T) {
	var c KNearest
	fill := func() {
		c.Reset(16)
		for i := 0; i < 100; i++ {
			c.Offer(Neighbor{ID: uint32(i), Dist: float64((i * 37) % 23)})
		}
		for c.Len() > 0 {
			c.Pop()
		}
	}
	fill()
	if a := testing.AllocsPerRun(100, fill); a != 0 {
		t.Fatalf("warm reset and refill: %v allocs, want 0", a)
	}
}
