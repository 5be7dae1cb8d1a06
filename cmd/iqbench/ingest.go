package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// ingestWriters is the number of concurrent writers in the burst.
const ingestWriters = 8

// runIngest benchmarks the durable write path end to end: a burst of
// concurrent single-point writes through the engine's write lane (every
// acknowledgement means WAL-durable) on a WAL-mode tree, then the same
// KNN batch measured quiescent and again while a background goroutine
// drives the incremental reoptimizer step by step.
//
// The sim p99 ratio (during reoptimization over quiescent) is the
// bounded-interference number the gate checks. Simulated latency is the
// repo's latency currency: it charges exactly the I/O a query pays, so
// a reoptimizer that made readers fall off their pinned snapshots (or
// degraded them onto exact-page fallbacks) shows up here,
// deterministically. Wall latency is reported too but not gated: on a
// small CI host it measures scheduler contention with the CPU-bound
// re-quantization steps, not index interference.
func runIngest(o experiments.RunOpts) (experiments.Figure, error) {
	const writers = ingestWriters
	n := max(2000, int(50000*o.Scale))
	const dim, k = 16, 5
	extraN := n / 4 / writers * writers // evenly divisible insert burst
	pts, err := dataset.Generate(dataset.Uniform, o.Seed, n+extraN+o.Queries, dim)
	if err != nil {
		return experiments.Figure{}, err
	}
	db := pts[:n]
	extra := pts[n : n+extraN]
	qs := pts[n+extraN:]

	sto := store.NewSim(store.DefaultConfig())
	opt := core.DefaultOptions()
	opt.WAL = true
	tr, err := core.Build(sto, db, opt)
	if err != nil {
		return experiments.Figure{}, err
	}

	// Phase 1 — ingest burst. WAL counters live on the process registry;
	// deltas around the burst isolate this run's appends and fsyncs.
	reg := &obs.Registry{}
	we := engine.New(sto, tr, 4, engine.WithWrites(), engine.WithRegistry(reg))
	before := obs.Default().Snapshot().Counters
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	per := extraN / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := w*per + i
				res := we.SubmitWrite(engine.Write{
					Kind:   engine.WriteInsert,
					Points: extra[idx : idx+1],
					IDs:    []uint32{uint32(1000000 + idx)},
				})
				if res.Err != nil {
					errc <- fmt.Errorf("insert %d: %w", idx, res.Err)
					return
				}
			}
		}(w)
	}
	deletes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i += 13 {
			res := we.SubmitWrite(engine.Write{
				Kind:   engine.WriteDelete,
				Points: db[i : i+1],
				IDs:    []uint32{uint32(i)},
			})
			if res.Err != nil {
				errc <- fmt.Errorf("delete %d: %w", i, res.Err)
				return
			}
			deletes++
		}
	}()
	wg.Wait()
	wall := time.Since(start).Seconds()
	we.Close()
	select {
	case err := <-errc:
		return experiments.Figure{}, err
	default:
	}
	after := obs.Default().Snapshot().Counters
	appends := after["wal.appends"] - before["wal.appends"]
	fsyncs := after["wal.fsyncs"] - before["wal.fsyncs"]

	// Phase 2 — quiescent read latency over the churned tree.
	batch := make([]engine.Query, len(qs))
	for i, q := range qs {
		batch[i] = engine.Query{Kind: engine.KNN, Point: q, K: k}
	}
	quietSim, quietWall, err := measureReads(sto, tr, batch)
	if err != nil {
		return experiments.Figure{}, fmt.Errorf("quiescent reads: %w", err)
	}

	// Phase 3 — same reads while a background goroutine steps the
	// incremental reoptimizer; when a run completes it begins another,
	// so the whole read window overlaps compaction. Steps are paced like
	// a real background daemon would be — a hot loop on a small host
	// would just benchmark CPU starvation.
	stop := make(chan struct{})
	stepDone := make(chan error, 1)
	var steps int64
	go func() {
		s := sto.NewSession()
		for {
			select {
			case <-stop:
				// Drive any in-flight run to its swap so the tree is
				// left clean (and the final WAL truncation happens).
				for tr.ReoptimizeRunning() {
					if _, err := tr.ReoptimizeStep(s); err != nil {
						stepDone <- err
						return
					}
				}
				stepDone <- nil
				return
			default:
			}
			if _, err := tr.ReoptimizeStep(s); err != nil {
				stepDone <- err
				return
			}
			steps++
			time.Sleep(time.Millisecond)
		}
	}()
	reoptSim, reoptWall, rerr := measureReads(sto, tr, batch)
	close(stop)
	if serr := <-stepDone; serr != nil {
		return experiments.Figure{}, fmt.Errorf("reoptimize step: %w", serr)
	}
	if rerr != nil {
		return experiments.Figure{}, fmt.Errorf("reads during reoptimize: %w", rerr)
	}

	fig := experiments.Figure{
		ID:     "ingest",
		Title:  fmt.Sprintf("Durable ingest, then reads quiescent vs during reoptimization (%s n=%d dim=%d k=%d)", dataset.Uniform, n, dim, k),
		XLabel: "writers",
	}
	x := float64(writers)
	add(&fig, "inserts", x, float64(extraN))
	add(&fig, "deletes", x, float64(deletes))
	add(&fig, "burst wall s", x, wall)
	add(&fig, "acked writes/s", x, float64(extraN+deletes)/wall)
	add(&fig, "wal appends", x, float64(appends))
	add(&fig, "wal fsyncs", x, float64(fsyncs))
	add(&fig, "appends/fsync", x, ratio(float64(appends), float64(fsyncs)))
	add(&fig, "write batches", x, float64(reg.Snapshot().Counters["engine.write_batches"]))
	add(&fig, "reopt steps", x, float64(steps))
	add(&fig, "quiet sim p50 s", x, quietSim.P50)
	add(&fig, "quiet sim p99 s", x, quietSim.P99)
	add(&fig, "quiet wall p50 ms", x, quietWall.P50*1e3)
	add(&fig, "quiet wall p99 ms", x, quietWall.P99*1e3)
	add(&fig, "reopt sim p50 s", x, reoptSim.P50)
	add(&fig, "reopt sim p99 s", x, reoptSim.P99)
	add(&fig, "reopt wall p50 ms", x, reoptWall.P50*1e3)
	add(&fig, "reopt wall p99 ms", x, reoptWall.P99*1e3)
	add(&fig, "sim p99 ratio", x, ratio(reoptSim.P99, quietSim.P99))
	add(&fig, "wall p99 ratio", x, ratio(reoptWall.P99, quietWall.P99))
	return fig, nil
}

// measureReads pushes the query batch through a fresh 4-worker engine
// (its own registry, so phases do not share histogram windows) enough
// times to populate the latency histograms, and returns the simulated
// latency (the disk model, deterministic) and the host wall latency
// (actual interference from a concurrent reoptimizer).
func measureReads(sto *store.Store, tr *core.Tree, batch []engine.Query) (sim, wall obs.HistogramSnapshot, err error) {
	reg := &obs.Registry{}
	e := engine.New(sto, tr, 4, engine.WithRegistry(reg))
	defer e.Close()
	const passes = 4
	for p := 0; p < passes; p++ {
		for _, res := range e.SubmitBatch(batch) {
			if res.Err != nil {
				return sim, wall, res.Err
			}
		}
	}
	return reg.Histogram("engine.sim_latency_seconds").Snapshot(),
		reg.Histogram("engine.wall_latency_seconds").Snapshot(), nil
}

// checkIngest evaluates the bounded-interference gate: read simulated
// p99 while the reoptimizer runs must stay within 2x the quiescent p99,
// and the quiescent p99 must be a real measurement.
func checkIngest(fig experiments.Figure) error {
	g := gateCheck{fig: fig}
	quiet, during := g.at("quiet sim p99 s", ingestWriters), g.at("reopt sim p99 s", ingestWriters)
	g.require(quiet > 0, "quiescent simulated p99 is %.4fs, want > 0", quiet)
	g.require(during <= 2*quiet, "simulated p99 during incremental reoptimize is %.2fx quiescent, want <= 2x", during/quiet)
	return g.err()
}
