package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// scalingWorkers is the engine scaling sweep: worker-pool sizes.
var scalingWorkers = []int{1, 2, 4, 8}

// makespan is the simulated finish time of a batch on lanes disks, one
// per engine worker: query i runs on lane i mod lanes, and the busiest
// lane's summed simulated seconds set the time. Dealt by query index, it
// does not depend on which worker goroutine ran which query.
func makespan(simTimes []float64, lanes int) float64 {
	busy := make([]float64, lanes)
	var m float64
	for i, s := range simTimes {
		busy[i%lanes] += s
		m = max(m, busy[i%lanes])
	}
	return m
}

// runScaling benchmarks the engine's scaling curve: it builds one
// IQ-tree on the simulated disk and pushes the same KNN batch through
// worker pools of each size. Simulated QPS divides the batch size by the
// simulated makespan (the model of one disk per worker); wall QPS is the
// host wall-clock throughput, which only scales with real cores.
func runScaling(o experiments.RunOpts) (experiments.Figure, error) {
	n := max(2000, int(100000*o.Scale))
	const dim, k = 16, 1
	pts, err := dataset.Generate(dataset.Uniform, o.Seed, n+o.Queries, dim)
	if err != nil {
		return experiments.Figure{}, err
	}
	db, qs := dataset.Split(pts, o.Queries)
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
		ID:     "scaling",
		Title:  fmt.Sprintf("Engine scaling (%s n=%d dim=%d queries=%d k=%d)", dataset.Uniform, n, dim, len(qs), k),
		XLabel: "workers",
	}
	for _, w := range scalingWorkers {
		reg := &obs.Registry{}
		e := engine.New(sto, tr, w, engine.WithRegistry(reg))
		start := time.Now()
		results := e.SubmitBatch(batch)
		wall := time.Since(start).Seconds()
		e.Close()
		sims := make([]float64, len(results))
		for i, res := range results {
			if res.Err != nil {
				return experiments.Figure{}, fmt.Errorf("workers=%d: %w", w, res.Err)
			}
			sims[i] = res.SimTime
		}
		span := makespan(sims, w)
		lat := reg.Histogram("engine.sim_latency_seconds").Snapshot()
		x := float64(w)
		add(&fig, "sim qps", x, float64(len(batch))/span)
		add(&fig, "wall qps", x, float64(len(batch))/wall)
		add(&fig, "sim makespan s", x, span)
		add(&fig, "wall s", x, wall)
		add(&fig, "sim p50 s", x, lat.P50)
		add(&fig, "sim p95 s", x, lat.P95)
		add(&fig, "sim p99 s", x, lat.P99)
	}
	return fig, nil
}

// checkScaling: 4 workers deliver at least twice the 1-worker simulated
// QPS.
func checkScaling(fig experiments.Figure) error {
	g := gateCheck{fig: fig}
	one, four := g.at("sim qps", 1), g.at("sim qps", 4)
	g.require(four >= 2*one, "4-worker simulated QPS is %.2fx the 1-worker rate, want >= 2x", four/one)
	return g.err()
}
