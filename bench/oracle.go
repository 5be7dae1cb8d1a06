package main

import (
	"runtime"
	"sync"

	"repro/internal/vec"
)

// The oracle answers k-NN queries by brute force over the points the
// index should hold: pts[id] is the point with that ID, and live (nil =
// all) says which IDs are present. Distances use the same function as the
// index, so a correct answer matches the oracle's distances exactly.

// bruteKNN returns the k nearest live points to q in (Dist, ID) order.
func bruteKNN(pts []vec.Point, live []bool, q vec.Point, k int) []vec.Neighbor {
	out := make([]vec.Neighbor, 0, k+1)
	for id, p := range pts {
		if live != nil && !live[id] {
			continue
		}
		d := vec.Euclidean.Dist(q, p)
		if len(out) == k && !less(d, uint32(id), out[k-1]) {
			continue
		}
		i := len(out)
		out = append(out, vec.Neighbor{})
		for i > 0 && less(d, uint32(id), out[i-1]) {
			out[i] = out[i-1]
			i--
		}
		out[i] = vec.Neighbor{ID: uint32(id), Dist: d}
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

func less(d float64, id uint32, n vec.Neighbor) bool {
	return d < n.Dist || (d == n.Dist && id < n.ID)
}

// bruteAll answers the queries qs[i] for every i in idx, split across the
// host's CPUs; the answer of qs[i] lands in want[i].
func bruteAll(pts []vec.Point, live []bool, qs []vec.Point, idx []int, k int, want [][]vec.Neighbor) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += workers {
				want[idx[j]] = bruteKNN(pts, live, qs[idx[j]], k)
			}
		}(w)
	}
	wg.Wait()
}

// genuine reports whether every neighbor is a distinct live point
// reported at its true distance.
func genuine(got []vec.Neighbor, q vec.Point, pts []vec.Point, live []bool) bool {
	seen := make(map[uint32]bool, len(got))
	for _, n := range got {
		if int(n.ID) >= len(pts) || (live != nil && !live[n.ID]) || seen[n.ID] {
			return false
		}
		if vec.Euclidean.Dist(q, pts[n.ID]) != n.Dist {
			return false
		}
		seen[n.ID] = true
	}
	return true
}

// exact reports whether got is a correct answer: genuine, and with the
// oracle's distances rank by rank. Ties at equal distance may pick any of
// the tied points.
func exact(got, want []vec.Neighbor, q vec.Point, pts []vec.Point, live []bool) bool {
	if len(got) != len(want) || !genuine(got, q, pts, live) {
		return false
	}
	for i := range got {
		if got[i].Dist != want[i].Dist {
			return false
		}
	}
	return true
}

// recall returns the share of the oracle's k answers that got matches:
// the neighbors no farther than the oracle's k-th distance.
func recall(got, want []vec.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	kth := want[len(want)-1].Dist
	hit := 0
	for _, n := range got {
		if n.Dist <= kth {
			hit++
		}
	}
	return float64(min(hit, len(want))) / float64(len(want))
}
