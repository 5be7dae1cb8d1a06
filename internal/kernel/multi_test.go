package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// TestBoundsBatchMatchesScalar pins the batch entry points to the scalar
// ones bit for bit: for every point of a synthetic page, MinDistBatch and
// HitsBatch must reproduce exactly what per-point MinDistPruned and Hits
// return with the same threshold.
func TestBoundsBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []int{1, 2, 4, 8, 16} {
		for _, dim := range []int{2, 5, 16} {
			for _, met := range metrics {
				g := randGrid(rng, dim, bits)
				count := 1 + rng.Intn(64)
				codes := make([]uint32, count*dim)
				for i := 0; i < count; i++ {
					g.Encode(randPointIn(rng, g.MBR), codes[i*dim:i*dim])
				}
				q := randPointIn(rng, g.MBR)

				var a Arena
				tb := a.Tables(g, q, met, count)
				// A threshold around the typical bound magnitudes so both
				// outcomes (pruned, candidate) occur.
				ref := g.MBR.MinDist(q, met) + float64(g.MBR.Side(0))
				lbT := SqThreshold(met, ref*(0.2+rng.Float64()))

				var pm PageBounds
				tb.MinDistBatch(codes, dim, count, lbT, &pm)
				for i := 0; i < count; i++ {
					lb, pruned := tb.MinDistPruned(codes[i*dim:(i+1)*dim], lbT)
					if pm.Pruned[i] != pruned || (!pruned && pm.Lb[i] != lb) {
						t.Fatalf("bits=%d dim=%d met=%v point %d: MinDistBatch (%v,%v) scalar (%v,%v)",
							bits, dim, met, i, pm.Lb[i], pm.Pruned[i], lb, pruned)
					}
				}

				w := vec.MBR{Lo: randPointIn(rng, g.MBR), Hi: randPointIn(rng, g.MBR)}
				for d := 0; d < dim; d++ {
					if w.Lo[d] > w.Hi[d] {
						w.Lo[d], w.Hi[d] = w.Hi[d], w.Lo[d]
					}
				}
				wt := a.Window(g, w, count)
				hits := wt.HitsBatch(codes, dim, count, nil)
				for i := 0; i < count; i++ {
					if want := wt.Hits(codes[i*dim : (i+1)*dim]); hits[i] != want {
						t.Fatalf("bits=%d dim=%d point %d: HitsBatch %v, Hits %v", bits, dim, i, hits[i], want)
					}
				}
			}
		}
	}
}

// TestPageBoundsReuse checks the high-water buffer reuse: shrinking and
// growing the page size between calls never leaks stale results.
func TestPageBoundsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randGrid(rng, 4, 8)
	var a Arena
	q := randPointIn(rng, g.MBR)
	tb := a.Tables(g, q, vec.Euclidean, 32)
	var pb PageBounds
	lbT := SqThreshold(vec.Euclidean, 1)
	for _, count := range []int{32, 5, 17, 1, 32} {
		codes := make([]uint32, count*4)
		for i := 0; i < count; i++ {
			g.Encode(randPointIn(rng, g.MBR), codes[i*4:i*4])
		}
		tb.MinDistBatch(codes, 4, count, lbT, &pb)
		if len(pb.Lb) != count || len(pb.Pruned) != count {
			t.Fatalf("count=%d: lengths %d/%d", count, len(pb.Lb), len(pb.Pruned))
		}
		for i := 0; i < count; i++ {
			lb, pruned := tb.MinDistPruned(codes[i*4:(i+1)*4], lbT)
			if pb.Pruned[i] != pruned || (!pruned && pb.Lb[i] != lb) {
				t.Fatalf("count=%d point %d: stale buffer contents", count, i)
			}
		}
	}
}
