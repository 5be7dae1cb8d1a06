package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// approxDials is the MinRecall sweep, in the decreasing order the gate
// checks monotonicity in. The figure's X is MinRecall in percent.
var approxDials = []float64{1.0, 0.95, 0.9, 0.8, 0.6, 0.4, 0.2}

// runApprox sweeps the MinRecall dial over a high-dimensional uniform
// workload — where the exact search degenerates toward a full scan and
// approximation has the most to skip — and measures the recall/latency
// Pareto against the exact ground truth. Recall is mean |approx ∩ exact|
// / k over the batch; QPS divides the batch size by the summed simulated
// seconds; speedup is against the exact run of the same batch.
// Terminated counts queries whose stopping rule fired, skipped pages the
// pages (quantized and exact) those terminations left unfetched.
func runApprox(o experiments.RunOpts) (experiments.Figure, error) {
	n := max(4000, int(20000*o.Scale))
	const dim, k = 32, 10
	all, err := dataset.Generate(dataset.Uniform, o.Seed, n+o.Queries, dim)
	if err != nil {
		return experiments.Figure{}, err
	}
	db, qs := dataset.Split(all, o.Queries)
	sto := store.NewSim(store.DefaultConfig())
	tr, err := core.Build(sto, db, core.DefaultOptions())
	if err != nil {
		return experiments.Figure{}, err
	}

	exact := make([][]vec.Neighbor, len(qs))
	exactS := 0.0
	for i, q := range qs {
		s := sto.NewSession()
		res, err := tr.KNN(s, q, k)
		if err != nil {
			return experiments.Figure{}, fmt.Errorf("exact query %d: %w", i, err)
		}
		exact[i] = res
		exactS += s.Time()
	}

	fig := experiments.Figure{
		ID:     "approx",
		Title:  fmt.Sprintf("Approximate search: recall/latency Pareto (%s n=%d dim=%d queries=%d k=%d)", dataset.Uniform, n, dim, len(qs), k),
		XLabel: "MinRecall (%)",
	}
	for _, mr := range approxDials {
		var recall, seconds float64
		terminated, skipped := 0, 0
		for i, q := range qs {
			trace := obs.NewQueryTrace("")
			s := sto.NewSession()
			s.SetTrace(trace)
			res, err := tr.KNNApprox(s, q, k, mr)
			if err != nil {
				return experiments.Figure{}, fmt.Errorf("MinRecall=%v query %d: %w", mr, i, err)
			}
			if mr == 1 && !sameAnswer(res, exact[i]) {
				return experiments.Figure{}, fmt.Errorf("MinRecall=1 diverged from the exact answer of query %d — ε = 0 must be bit-identical", i)
			}
			seconds += s.Time()
			recall += recallAgainst(exact[i], res)
			if trace.Terminated {
				terminated++
			}
			skipped += trace.SkippedPages
		}
		x := mr * 100
		add(&fig, "recall", x, recall/float64(len(qs)))
		add(&fig, "sim s", x, seconds)
		add(&fig, "sim qps", x, float64(len(qs))/seconds)
		add(&fig, "speedup", x, exactS/seconds)
		add(&fig, "terminated", x, float64(terminated))
		add(&fig, "skipped pages", x, float64(skipped))
	}
	return fig, nil
}

// recallAgainst returns |approx ∩ exact| / |exact| by ID.
func recallAgainst(exact, approx []vec.Neighbor) float64 {
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

// checkApprox enforces the acceptance thresholds of the approximate
// search: recall exactly 1.0 at MinRecall 1 (ε = 0; bit-identity was
// already asserted during the sweep), the sweep a monotone Pareto
// frontier (turning the dial down never costs time or buys recall), and
// a real win — some setting reaching >= 1.5x the exact simulated QPS
// while keeping measured recall >= 0.95.
func checkApprox(fig experiments.Figure) error {
	g := gateCheck{fig: fig}
	best, bestAt := 0.0, 0.0
	var prevRecall, prevSeconds float64
	for i, mr := range approxDials {
		x := mr * 100
		recall, seconds, speedup := g.at("recall", x), g.at("sim s", x), g.at("speedup", x)
		if i == 0 {
			g.require(recall == 1.0, "recall %.4f at MinRecall=%.2f, want exactly 1.0", recall, mr)
		} else {
			g.require(seconds <= prevSeconds*(1+1e-9), "non-monotone latency — %.4fs at MinRecall=%.2f after %.4fs at %.2f",
				seconds, mr, prevSeconds, approxDials[i-1])
			g.require(recall <= prevRecall+0.005, "non-monotone recall — %.4f at MinRecall=%.2f after %.4f at %.2f",
				recall, mr, prevRecall, approxDials[i-1])
		}
		if recall >= 0.95 && speedup > best {
			best, bestAt = speedup, mr
		}
		prevRecall, prevSeconds = recall, seconds
	}
	g.require(best >= 1.5, "best speedup at recall >= 0.95 is %.2fx (at MinRecall=%.2f), want >= 1.5x", best, bestAt)
	return g.err()
}
