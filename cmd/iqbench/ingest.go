package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// ingestReport is the schema of the -ingest JSON report
// (BENCH_ingest.json): one durable-ingest burst through the engine's
// write lane on a WAL-mode tree, then read latency quiescent vs. while
// the incremental reoptimizer runs.
type ingestReport struct {
	Date    string `json:"date"`
	Dataset string `json:"dataset"`
	N       int    `json:"n"`
	Dim     int    `json:"dim"`
	Writers int    `json:"writers"`

	Inserts           int     `json:"inserts"`
	Deletes           int     `json:"deletes"`
	WallSeconds       float64 `json:"wall_seconds"`
	AckedWritesPerSec float64 `json:"acked_writes_per_sec"`

	WALAppends      int64   `json:"wal_appends"`
	WALFsyncs       int64   `json:"wal_fsyncs"`
	AppendsPerFsync float64 `json:"appends_per_fsync"`
	EngineBatches   int64   `json:"engine_write_batches"`

	ReoptSteps int64 `json:"reopt_steps"`

	Quiescent   ingestLatency `json:"quiescent"`
	DuringReopt ingestLatency `json:"during_reopt"`

	// SimP99Ratio is during-reopt simulated p99 over quiescent simulated
	// p99 — the bounded-interference number the gate checks. Simulated
	// latency is the repo's latency currency: it charges exactly the I/O
	// a query pays, so a reoptimizer that made readers fall off their
	// pinned snapshots (or degraded them onto exact-page fallbacks)
	// shows up here, deterministically. Wall latency is reported too but
	// not gated: on a small CI host it measures scheduler contention
	// with the CPU-bound re-quantization steps, not index interference.
	SimP99Ratio  float64 `json:"sim_p99_ratio"`
	WallP99Ratio float64 `json:"wall_p99_ratio"`
}

// ingestLatency is one read-latency measurement: simulated seconds (the
// disk model, deterministic) and host wall seconds (actual interference
// from the concurrent reoptimizer).
type ingestLatency struct {
	SimP50  float64 `json:"sim_p50"`
	SimP99  float64 `json:"sim_p99"`
	WallP50 float64 `json:"wall_p50"`
	WallP99 float64 `json:"wall_p99"`
}

// runIngest benchmarks the durable write path end to end: a burst of
// concurrent single-point writes through the engine's write lane (every
// acknowledgement means WAL-durable), then the same KNN batch measured
// quiescent and again while a background goroutine drives the
// incremental reoptimizer step by step. The gate fails when reads under
// reoptimization degrade past 2x the quiescent simulated p99.
func runIngest(spec string, scale float64, queries int, seed int64, out string, gate bool) error {
	writers := 8
	if spec != "" && spec != "default" {
		w, err := strconv.Atoi(spec)
		if err != nil || w <= 0 {
			return fmt.Errorf("bad -ingest writer count %q", spec)
		}
		writers = w
	}

	n := int(float64(50000) * scale)
	if n < 2000 {
		n = 2000
	}
	const dim, k = 16, 5
	extraN := n / 4 / writers * writers // evenly divisible insert burst
	pts, err := dataset.Generate(dataset.Uniform, seed, n+extraN+queries, dim)
	if err != nil {
		return err
	}
	db := pts[:n]
	extra := pts[n : n+extraN]
	qs := pts[n+extraN:]

	sto := store.NewSim(store.DefaultConfig())
	opt := core.DefaultOptions()
	opt.WAL = true
	tr, err := core.Build(sto, db, opt)
	if err != nil {
		return err
	}

	report := ingestReport{
		Date:    time.Now().UTC().Format(time.RFC3339),
		Dataset: string(dataset.Uniform),
		N:       n,
		Dim:     dim,
		Writers: writers,
	}
	fmt.Printf("durable ingest: %s n=%d dim=%d writers=%d inserts=%d\n",
		dataset.Uniform, n, dim, writers, extraN)

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
		return err
	default:
	}
	after := obs.Default().Snapshot().Counters
	writes := extraN + deletes

	report.Inserts = extraN
	report.Deletes = deletes
	report.WallSeconds = wall
	report.AckedWritesPerSec = float64(writes) / wall
	report.WALAppends = after["wal.appends"] - before["wal.appends"]
	report.WALFsyncs = after["wal.fsyncs"] - before["wal.fsyncs"]
	if report.WALFsyncs > 0 {
		report.AppendsPerFsync = float64(report.WALAppends) / float64(report.WALFsyncs)
	}
	report.EngineBatches = reg.Snapshot().Counters["engine.write_batches"]
	fmt.Printf("burst: %d acked writes in %.3fs (%.0f writes/s), %d WAL appends over %d fsyncs (%.1f/fsync)\n",
		writes, wall, report.AckedWritesPerSec, report.WALAppends, report.WALFsyncs, report.AppendsPerFsync)

	// Phase 2 — quiescent read latency over the churned tree.
	batch := make([]engine.Query, len(qs))
	for i, q := range qs {
		batch[i] = engine.Query{Kind: engine.KNN, Point: q, K: k}
	}
	quiet, err := measureReads(sto, tr, batch)
	if err != nil {
		return fmt.Errorf("quiescent reads: %w", err)
	}
	report.Quiescent = quiet
	fmt.Printf("quiescent reads: sim p50/p99 = %.4f/%.4f s, wall p50/p99 = %.6f/%.6f s\n",
		quiet.SimP50, quiet.SimP99, quiet.WallP50, quiet.WallP99)

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
	during, rerr := measureReads(sto, tr, batch)
	close(stop)
	if serr := <-stepDone; serr != nil {
		return fmt.Errorf("reoptimize step: %w", serr)
	}
	if rerr != nil {
		return fmt.Errorf("reads during reoptimize: %w", rerr)
	}
	report.DuringReopt = during
	report.ReoptSteps = steps
	if quiet.SimP99 > 0 {
		report.SimP99Ratio = during.SimP99 / quiet.SimP99
	}
	if quiet.WallP99 > 0 {
		report.WallP99Ratio = during.WallP99 / quiet.WallP99
	}
	fmt.Printf("reads during reoptimize (%d steps): sim p50/p99 = %.4f/%.4f s (%.2fx quiescent sim p99), wall p50/p99 = %.6f/%.6f s\n",
		steps, during.SimP50, during.SimP99, report.SimP99Ratio, during.WallP50, during.WallP99)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", out, err)
	}
	fmt.Printf("report written to %s\n", out)

	if gate {
		if ratio, ok := checkIngest(report); !ok {
			return fmt.Errorf("ingest gate FAILED: simulated p99 during incremental reoptimize is %.2fx quiescent, want <= 2x", ratio)
		} else {
			fmt.Printf("ingest gate OK: simulated p99 during incremental reoptimize is %.2fx quiescent\n", ratio)
		}
	}
	return nil
}

// checkIngest evaluates the bounded-interference gate: read simulated
// p99 while the reoptimizer runs must stay within 2x the quiescent p99.
func checkIngest(r ingestReport) (float64, bool) {
	return r.SimP99Ratio, r.Quiescent.SimP99 > 0 && r.DuringReopt.SimP99 <= 2*r.Quiescent.SimP99
}

// measureReads pushes the query batch through a fresh 4-worker engine
// (its own registry, so phases do not share histogram windows) enough
// times to populate the latency histograms, and returns the snapshot.
func measureReads(sto *store.Store, tr *core.Tree, batch []engine.Query) (ingestLatency, error) {
	reg := &obs.Registry{}
	e := engine.New(sto, tr, 4, engine.WithRegistry(reg))
	defer e.Close()
	const passes = 4
	for p := 0; p < passes; p++ {
		for _, res := range e.SubmitBatch(batch) {
			if res.Err != nil {
				return ingestLatency{}, res.Err
			}
		}
	}
	sim := reg.Histogram("engine.sim_latency_seconds").Snapshot()
	wl := reg.Histogram("engine.wall_latency_seconds").Snapshot()
	return ingestLatency{SimP50: sim.P50, SimP99: sim.P99, WallP50: wl.P50, WallP99: wl.P99}, nil
}
