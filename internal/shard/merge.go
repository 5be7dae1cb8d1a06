package shard

import (
	"cmp"
	"slices"

	"repro/internal/engine"
	"repro/internal/vec"
)

// Global merge. Every shard answers its sub-query exactly over its own
// points, so the union of per-shard results contains the exact global
// answer: for KNN, any global top-k member is by definition within its
// own shard's top-k (its distance beats the shard's k-th best), so
// taking the k smallest of the union is exact; range and window results
// partition cleanly and concatenate. The coordinator pins a canonical
// result order — (Dist, ID) for KNN and range, ID for window — so the
// merged answer is a deterministic function of the query and the data,
// independent of shard count, replica choice, or failover history.

// merge concatenates the shards' answers (global IDs) and sorts them
// into the canonical order; a KNN keeps the first k. Global IDs are
// unique across shards, so the order is total: ties in distance,
// within a shard or across shards, are cut by ascending ID, and the
// k-boundary cut does not depend on how the lists were split.
func merge(kind engine.Kind, lists [][]vec.Neighbor, k int) []vec.Neighbor {
	out := slices.Concat(lists...)
	if kind == engine.Window {
		slices.SortFunc(out, func(a, b vec.Neighbor) int { return cmp.Compare(a.ID, b.ID) })
		return out
	}
	slices.SortFunc(out, func(a, b vec.Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	if kind == engine.KNN && len(out) > k {
		out = out[:k]
	}
	return out
}
