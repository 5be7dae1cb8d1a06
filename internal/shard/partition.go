package shard

import (
	"math/rand"
	"runtime"

	"repro/internal/par"
	"repro/internal/vec"
)

// Partitioner assigns every point of a build set to one of n shards,
// and places later inserts the same way. The placement shapes balance
// and locality, never correctness: a KNN skips only the shards whose
// bounding box lies beyond its k-th distance, and range and window
// queries go to every shard, so any placement answers exactly. Locality
// decides how many shards a KNN can skip.
type Partitioner interface {
	// Name identifies the strategy in benchmarks and stats.
	Name() string
	// Assign returns one shard id in [0, shards) per point, and the
	// Placer that routes points inserted after the build. Shards may end
	// up empty; the coordinator serves them as empty result sets.
	Assign(pts []vec.Point, shards int) ([]int, Placer)
}

// Placer routes one point inserted after the build to a shard in
// [0, shards), given its global ID. Build point i has global ID i.
type Placer func(p vec.Point, gid uint32) int

// RoundRobin deals points out cyclically — the balance-first strategy:
// shard sizes differ by at most one point, with no locality.
type RoundRobin struct{}

// Name identifies the strategy.
func (RoundRobin) Name() string { return "round-robin" }

// Assign maps point i to shard i % shards, and an inserted point with
// global ID g to shard g % shards, continuing the rotation.
func (RoundRobin) Assign(pts []vec.Point, shards int) ([]int, Placer) {
	out := make([]int, len(pts))
	for i := range pts {
		out[i] = i % shards
	}
	return out, func(_ vec.Point, gid uint32) int { return int(gid % uint32(shards)) }
}

// Centroid is a coarse k-means router: a few seeded Lloyd iterations
// over the build set place one centroid per shard, and each point joins
// its nearest centroid (ties to the lowest shard id). Clustered data
// then lands cluster-coherent shards, which tightens per-shard MBRs:
// the quantized filter prunes harder, and a KNN skips the shards whose
// box lies beyond its k-th distance — the same coarse-quantizer shape
// as an IVF index, applied at process scale.
type Centroid struct {
	// Seed makes the routing deterministic; the same seed and point set
	// always produce the same assignment.
	Seed int64
}

// lloydIters is the number of Lloyd iterations Centroid runs.
const lloydIters = 8

// Name identifies the strategy.
func (Centroid) Name() string { return "centroid" }

// Assign clusters pts around shards seeded centroids and returns each
// point's cluster. Its Placer puts an inserted point on its nearest
// final centroid, so a copy of a build point lands on that point's
// shard. The nearest-centroid passes run on up to GOMAXPROCS goroutines
// over contiguous chunks of pts; the centroid sums stay one pass in
// point order, so the result does not depend on how many.
func (c Centroid) Assign(pts []vec.Point, shards int) ([]int, Placer) {
	out := make([]int, len(pts))
	if shards <= 1 || len(pts) == 0 {
		return out, func(vec.Point, uint32) int { return 0 }
	}
	dim := len(pts[0])
	r := rand.New(rand.NewSource(c.Seed))

	// Seed centroids from a random sample of distinct points.
	cents := make([][]float64, shards)
	perm := r.Perm(len(pts))
	for i := range cents {
		cents[i] = make([]float64, dim)
		src := pts[perm[i%len(perm)]]
		for d := 0; d < dim; d++ {
			cents[i][d] = float64(src[d])
		}
	}

	nearest := func(p vec.Point) int {
		best, bestD := 0, -1.0
		for ci, cent := range cents {
			var d float64
			for j := 0; j < dim; j++ {
				diff := float64(p[j]) - cent[j]
				d += diff * diff
			}
			if bestD < 0 || d < bestD {
				best, bestD = ci, d
			}
		}
		return best
	}

	workers := min(len(pts), runtime.GOMAXPROCS(0))
	assignAll := func() {
		par.For(workers, func() func(int) {
			return func(w int) {
				for i := w * len(pts) / workers; i < (w+1)*len(pts)/workers; i++ {
					out[i] = nearest(pts[i])
				}
			}
		})
	}

	sum := make([][]float64, shards)
	cnt := make([]int, shards)
	for i := range sum {
		sum[i] = make([]float64, dim)
	}
	for it := 0; it < lloydIters; it++ {
		for i := range sum {
			for d := range sum[i] {
				sum[i][d] = 0
			}
			cnt[i] = 0
		}
		assignAll()
		for i, p := range pts {
			ci := out[i]
			for d := 0; d < dim; d++ {
				sum[ci][d] += float64(p[d])
			}
			cnt[ci]++
		}
		for ci := range cents {
			if cnt[ci] == 0 {
				// Re-seed a starved centroid on a random point so a bad
				// draw cannot permanently empty a shard.
				src := pts[r.Intn(len(pts))]
				for d := 0; d < dim; d++ {
					cents[ci][d] = float64(src[d])
				}
				continue
			}
			for d := 0; d < dim; d++ {
				cents[ci][d] = sum[ci][d] / float64(cnt[ci])
			}
		}
	}
	assignAll()
	return out, func(p vec.Point, _ uint32) int { return nearest(p) }
}
