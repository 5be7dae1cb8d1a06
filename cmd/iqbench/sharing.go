package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// sharingClients is the scan-sharing sweep: concurrent client counts.
var sharingClients = []int{1, 2, 4, 8, 16, 32, 64}

// runSharing benchmarks cross-query scan sharing: a clustered query
// workload (concurrent clients hitting overlapping hot regions) is pushed
// through the scan-sharing coordinator and the share-nothing worker pool
// at each client count. The client count is the worker count of both
// engines: the pool's workers and the queries the coordinator keeps in
// flight, so the two modes model the same number of concurrently
// executing queries. QPS divides the batch size by the simulated
// makespan; queries/page is page serves over page fetches — how many
// queries each fetched page fed on average (1.0 = no sharing).
func runSharing(o experiments.RunOpts) (experiments.Figure, error) {
	n := max(2000, int(100000*o.Scale))
	const dim, k, clusters = 16, 1, 4
	db, err := dataset.Generate(dataset.Uniform, o.Seed, n, dim)
	if err != nil {
		return experiments.Figure{}, err
	}
	// Queries cluster around a few hot regions: that is the workload scan
	// sharing exists for — concurrent clients re-reading the same pages.
	qs := dataset.GenClustered(o.Seed+1, o.Queries, dim, clusters, 0.05)
	sto := store.NewSim(store.DefaultConfig())
	tr, err := core.Build(sto, db, core.DefaultOptions())
	if err != nil {
		return experiments.Figure{}, err
	}
	batch := make([]engine.Query, len(qs))
	for i, q := range qs {
		batch[i] = engine.Query{Kind: engine.KNN, Point: q, K: k}
	}

	fig := experiments.Figure{
		ID: "sharing",
		Title: fmt.Sprintf("Scan sharing vs share-nothing (%s n=%d dim=%d queries=%d k=%d query-clusters=%d)",
			dataset.Uniform, n, dim, len(qs), k, clusters),
		XLabel: "clients",
	}
	for _, c := range sharingClients {
		sharedQPS, sharedLat, fetched, serves, err := runSharingMode(sto, tr, batch, c, true)
		if err != nil {
			return experiments.Figure{}, fmt.Errorf("clients=%d shared: %w", c, err)
		}
		directQPS, directLat, _, _, err := runSharingMode(sto, tr, batch, c, false)
		if err != nil {
			return experiments.Figure{}, fmt.Errorf("clients=%d direct: %w", c, err)
		}
		x := float64(c)
		add(&fig, "shared qps", x, sharedQPS)
		add(&fig, "direct qps", x, directQPS)
		add(&fig, "speedup", x, sharedQPS/directQPS)
		add(&fig, "shared p50 s", x, sharedLat.P50)
		add(&fig, "shared p99 s", x, sharedLat.P99)
		add(&fig, "direct p50 s", x, directLat.P50)
		add(&fig, "direct p99 s", x, directLat.P99)
		add(&fig, "pages fetched", x, float64(fetched))
		add(&fig, "page serves", x, float64(serves))
		add(&fig, "queries/page", x, ratio(float64(serves), float64(fetched)))
	}
	return fig, nil
}

// runSharingMode pushes the batch through one engine configuration and
// returns the simulated aggregate QPS, the latency snapshot, and (in
// sharing mode) the fetch/serve counters.
func runSharingMode(sto *store.Store, tr *core.Tree, batch []engine.Query, clients int, sharing bool) (
	float64, obs.HistogramSnapshot, int64, int64, error) {
	reg := &obs.Registry{}
	opts := []engine.Option{engine.WithRegistry(reg)}
	if sharing {
		opts = append(opts, engine.WithScanSharing())
	}
	e := engine.New(sto, tr, clients, opts...)
	results := e.SubmitBatch(batch)
	makespan := e.Makespan()
	e.Close()
	for _, res := range results {
		if res.Err != nil {
			return 0, obs.HistogramSnapshot{}, 0, 0, res.Err
		}
	}
	return float64(len(batch)) / makespan,
		reg.Histogram("engine.sim_latency_seconds").Snapshot(),
		reg.Counter("engine.shared.pages_fetched").Value(),
		reg.Counter("engine.shared.page_serves").Value(),
		nil
}

// checkSharing enforces the two acceptance thresholds of the sharing
// pipeline: a real aggregate win under contention (>= 1.3x simulated
// QPS and more than one query fed per fetched page at 32 clients), and
// no meaningful single-client latency cost for the restructuring
// (shared p99 within 10% of direct at 1 client).
func checkSharing(fig experiments.Figure) error {
	g := gateCheck{fig: fig}
	speedup, perPage := g.at("speedup", 32), g.at("queries/page", 32)
	sharedP99, directP99 := g.at("shared p99 s", 1), g.at("direct p99 s", 1)
	g.require(speedup >= 1.3, "%.2fx aggregate QPS at 32 clients, want >= 1.3x", speedup)
	g.require(perPage > 1.0, "%.2f queries/page at 32 clients, want > 1.0", perPage)
	g.require(sharedP99 <= directP99*1.10, "single-client p99 %.4fs vs %.4fs direct (> 10%% regression)", sharedP99, directP99)
	return g.err()
}
