package kernel

// Batch page filtering for range-style scans: the entry points below
// run a whole page's worth of per-point decisions in one call against a
// fixed threshold, so one decoded page is classified while its codes are
// hot in cache. Every decision is identical to the per-point call with
// the same threshold (TestBoundsBatchMatchesScalar).

// PageBounds holds the per-point output of one MinDistBatch call over a
// page: for point i, Pruned[i] means the lower bound provably cleared the
// threshold (Lb[i] is then meaningless); otherwise Lb[i] is the exact
// lower bound. Buffers are reused across calls at high-water capacity.
type PageBounds struct {
	Lb     []float64
	Pruned []bool
}

func (pb *PageBounds) grow(n int) {
	if cap(pb.Lb) < n {
		pb.Lb = make([]float64, n)
		pb.Pruned = make([]bool, n)
	}
	pb.Lb = pb.Lb[:n]
	pb.Pruned = pb.Pruned[:n]
}

// MinDistBatch runs MinDistPruned over all count points against the
// fixed threshold lbT, filling pb.Lb and pb.Pruned.
func (t *Tables) MinDistBatch(codes []uint32, dim, count int, lbT float64, pb *PageBounds) {
	pb.grow(count)
	for i := 0; i < count; i++ {
		lb, pruned := t.MinDistPruned(codes[i*dim:(i+1)*dim], lbT)
		pb.Pruned[i] = pruned
		pb.Lb[i] = lb
	}
}

// HitsBatch evaluates the window predicate for all count points, filling
// and returning hits (reused when capacity allows). hits[i] matches
// Hits on point i's codes exactly.
func (wt *WindowTable) HitsBatch(codes []uint32, dim, count int, hits []bool) []bool {
	if cap(hits) < count {
		hits = make([]bool, count)
	}
	hits = hits[:count]
	for i := 0; i < count; i++ {
		hits[i] = wt.Hits(codes[i*dim : (i+1)*dim])
	}
	return hits
}
