package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// faultReadErr is the campaign's transient read-error probability; the
// figure's X is it in percent.
const faultReadErr = 0.02

// maxChecksumOverhead bounds the clean-path cost of checksums, checked
// over plain: per direct query and in engine throughput.
const maxChecksumOverhead = 1.05

// runFaults is the deterministic fault-injection campaign over one tree:
// it reports the clean-path cost of checksums, then asserts that seeded
// transient faults are retried, at-rest corruption is quarantined
// (results stay identical to the clean run) and repaired, and the engine
// sheds and cancels instead of hanging.
func runFaults(o experiments.RunOpts) (experiments.Figure, error) {
	n := max(3000, int(30000*o.Scale))
	const dim, k = 8, 5
	queries := min(o.Queries, n/10)
	pts, err := dataset.Generate(dataset.Uniform, o.Seed, n+queries, dim)
	if err != nil {
		return experiments.Figure{}, err
	}
	db, qs := dataset.Split(pts, queries)
	opt := core.DefaultOptions()
	opt.FixedBits = 8 // compressed pages + exact shadows: the fallback is reachable

	fig := experiments.Figure{
		ID:     "faults",
		Title:  fmt.Sprintf("Fault-injection campaign (%s n=%d dim=%d queries=%d k=%d seed=%d)", dataset.Uniform, n, dim, len(qs), k, o.Seed),
		XLabel: "read-error rate (%)",
	}
	x := faultReadErr * 100

	// ---- Overhead: identical trees, with and without checksums. Both
	// get the shared buffer pool (the production configuration):
	// blocks verify once on pool ingest, hits are pre-verified.
	plainSto := store.NewSim(store.DefaultConfig())
	plainSto.SetCache(64 << 20)
	plainTree, err := core.Build(plainSto, db, opt)
	if err != nil {
		return experiments.Figure{}, err
	}
	checkedSto := store.NewSim(store.DefaultConfig())
	if err := checkedSto.EnableChecksums(); err != nil {
		return experiments.Figure{}, err
	}
	checkedSto.SetCache(64 << 20)
	checkedTree, err := core.Build(checkedSto, db, opt)
	if err != nil {
		return experiments.Figure{}, err
	}
	plainUs, checkedUs, plainQPS, checkedQPS, err := measureCleanPaths(
		plainSto, plainTree, checkedSto, checkedTree, qs, k)
	if err != nil {
		return experiments.Figure{}, err
	}
	add(&fig, "plain us/query", x, plainUs)
	add(&fig, "checked us/query", x, checkedUs)
	add(&fig, "query ratio", x, checkedUs/plainUs)
	add(&fig, "plain qps", x, plainQPS)
	add(&fig, "checked qps", x, checkedQPS)
	add(&fig, "qps ratio", x, plainQPS/checkedQPS)

	// ---- Build the chaos tree: checksums above a fault injector. ----
	faults := store.NewFaultStore(store.NewSimStore(store.DefaultConfig()), store.FaultConfig{})
	sto := store.Wrap(faults)
	if err := sto.EnableChecksums(); err != nil {
		return experiments.Figure{}, err
	}
	tr, err := core.Build(sto, db, opt)
	if err != nil {
		return experiments.Figure{}, err
	}
	clean := make([][]vec.Neighbor, len(qs))
	for i, q := range qs {
		if clean[i], err = tr.KNN(sto.NewSession(), q, k); err != nil {
			return experiments.Figure{}, fmt.Errorf("clean baseline query %d: %w", i, err)
		}
	}
	// mismatches runs every query and counts answers that differ from the
	// clean run; a query that fails fails the campaign.
	mismatches := func(phase string) (int, error) {
		m := 0
		for i, q := range qs {
			res, err := tr.KNN(sto.NewSession(), q, k)
			if err != nil {
				return 0, fmt.Errorf("%s query %d: %w", phase, i, err)
			}
			if !sameAnswer(res, clean[i]) {
				m++
			}
		}
		return m, nil
	}

	// ---- Phase A: transient faults are retried away. ----
	retriesBefore := obs.Default().Counter("store.read_retries").Value()
	faults.SetConfig(store.FaultConfig{Seed: o.Seed, ReadErr: faultReadErr})
	transient, err := mismatches("transient phase")
	if err != nil {
		return experiments.Figure{}, err
	}
	add(&fig, "transient queries", x, float64(len(qs)))
	add(&fig, "transient mismatches", x, float64(transient))
	add(&fig, "read retries", x, float64(obs.Default().Counter("store.read_retries").Value()-retriesBefore))
	add(&fig, "injected faults", x, float64(faults.InjectedTotal()))
	faults.SetConfig(store.FaultConfig{})

	// ---- Phase B: at-rest corruption is quarantined, then repaired. ----
	failsBefore := obs.Default().Counter("store.checksum_failures").Value()
	degradedBefore := obs.Default().Counter("core.degraded_reads").Value()
	corrupted := 0
	bf := sto.Backend().Lookup(core.QFileName)
	for _, row := range tr.DescribePages() {
		if row.Bits == quantize.ExactBits || corrupted >= 3 {
			continue
		}
		pos := row.QPos * tr.Options().QPageBlocks
		data, err := bf.ReadBlocks(pos, 1)
		if err != nil {
			return experiments.Figure{}, err
		}
		mut := append([]byte(nil), data...)
		mut[len(mut)/3] ^= 0x40
		if err := bf.WriteBlocks(pos, mut); err != nil {
			return experiments.Figure{}, err
		}
		corrupted++
	}
	if corrupted == 0 {
		return experiments.Figure{}, fmt.Errorf("chaos: no compressed pages to corrupt")
	}
	corrupt, err := mismatches("corruption phase")
	if err != nil {
		return experiments.Figure{}, err
	}
	quarantined := len(tr.QuarantinedPages())
	repaired, err := tr.Repair(sto.NewSession())
	if err != nil {
		return experiments.Figure{}, fmt.Errorf("repair: %w", err)
	}
	degradedMid := obs.Default().Counter("core.degraded_reads").Value()
	afterRepair, err := mismatches("post-repair")
	if err != nil {
		return experiments.Figure{}, err
	}
	add(&fig, "pages corrupted", x, float64(corrupted))
	add(&fig, "corrupt mismatches", x, float64(corrupt+afterRepair))
	add(&fig, "checksum failures", x, float64(obs.Default().Counter("store.checksum_failures").Value()-failsBefore))
	add(&fig, "quarantined", x, float64(quarantined))
	add(&fig, "degraded reads", x, float64(degradedMid-degradedBefore))
	add(&fig, "repaired", x, float64(repaired))
	add(&fig, "degraded after repair", x, float64(obs.Default().Counter("core.degraded_reads").Value()-degradedMid))

	// ---- Phase C: overload sheds, cancellation is honored. ----
	faults.SetConfig(store.FaultConfig{Latency: 1, LatencyDur: 2 * time.Millisecond})
	reg := &obs.Registry{}
	e := engine.New(sto, tr, 1, engine.WithRegistry(reg), engine.WithQueueWait(time.Millisecond))
	const burst = 32
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(q vec.Point) {
			defer wg.Done()
			e.Submit(engine.Query{Kind: engine.KNN, Point: q, K: k})
		}(qs[i%len(qs)])
	}
	wg.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Submit(engine.Query{Kind: engine.KNN, Point: qs[0], K: k, Ctx: ctx})
	e.Close()
	if !errors.Is(res.Err, engine.ErrCanceled) {
		return experiments.Figure{}, fmt.Errorf("canceled query returned %v, want ErrCanceled", res.Err)
	}
	faults.SetConfig(store.FaultConfig{})
	add(&fig, "burst", x, burst)
	add(&fig, "sheds", x, float64(reg.Counter("engine.sheds").Value()))
	add(&fig, "cancellations", x, float64(reg.Counter("engine.cancellations").Value()))
	add(&fig, "panics", x, float64(reg.Counter("engine.panics").Value()))
	return fig, nil
}

// measureCleanPaths times direct KNN queries and engine batch
// throughput on the plain and checksummed trees with the rounds
// interleaved, so clock drift, turbo states and GC land on both
// stores alike — the 5% gate must compare CRC cost, not machine noise.
// Best round is kept per store.
func measureCleanPaths(plainSto *store.Store, plainTree *core.Tree,
	checkedSto *store.Store, checkedTree *core.Tree,
	qs []vec.Point, k int) (plainUs, checkedUs, plainQPS, checkedQPS float64, err error) {

	// Repeat the query set until a round is long enough (~3000 queries)
	// that scheduler noise cannot swamp a 5% signal.
	reps := (3000 + len(qs) - 1) / len(qs)
	direct := func(sto *store.Store, tr *core.Tree) (time.Duration, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, q := range qs {
				if _, err := tr.KNN(sto.NewSession(), q, k); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}
	bestPlain, bestChecked := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 5; round++ {
		dp, err := direct(plainSto, plainTree)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		dc, err := direct(checkedSto, checkedTree)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if dp < bestPlain {
			bestPlain = dp
		}
		if dc < bestChecked {
			bestChecked = dc
		}
	}
	nq := float64(reps * len(qs))
	plainUs = float64(bestPlain.Microseconds()) / nq
	checkedUs = float64(bestChecked.Microseconds()) / nq

	batch := make([]engine.Query, 0, reps*len(qs))
	for r := 0; r < reps; r++ {
		for _, q := range qs {
			batch = append(batch, engine.Query{Kind: engine.KNN, Point: q, K: k})
		}
	}
	throughput := func(sto *store.Store, tr *core.Tree) (float64, error) {
		e := engine.New(sto, tr, 4, engine.WithRegistry(&obs.Registry{}))
		start := time.Now()
		results := e.SubmitBatch(batch)
		wall := time.Since(start).Seconds()
		e.Close()
		for _, res := range results {
			if res.Err != nil {
				return 0, res.Err
			}
		}
		return wall, nil
	}
	// The engine path is noisier than direct queries (goroutine
	// scheduling); more rounds keep the best-of stable.
	bestPlainWall, bestCheckedWall := 1e18, 1e18
	for round := 0; round < 7; round++ {
		wp, err := throughput(plainSto, plainTree)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		wc, err := throughput(checkedSto, checkedTree)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if wp < bestPlainWall {
			bestPlainWall = wp
		}
		if wc < bestCheckedWall {
			bestCheckedWall = wc
		}
	}
	plainQPS = float64(len(batch)) / bestPlainWall
	checkedQPS = float64(len(batch)) / bestCheckedWall
	return plainUs, checkedUs, plainQPS, checkedQPS, nil
}

// checkFaults enforces the campaign's eleven checks: transients fully
// retried with no changed answer, corruption caught by checksums,
// quarantined and repaired with no changed answer and no degraded read
// left, overload shed, cancellation counted, and the clean-path
// checksum overhead within 5% both per query and in throughput.
func checkFaults(fig experiments.Figure) error {
	g := gateCheck{fig: fig}
	x := faultReadErr * 100
	transient, corrupt := g.at("transient mismatches", x), g.at("corrupt mismatches", x)
	queryRatio, qpsRatio := g.at("query ratio", x), g.at("qps ratio", x)
	g.require(transient == 0, "%.0f transient-phase mismatches", transient)
	g.require(g.at("read retries", x) > 0, "no reads were retried")
	g.require(corrupt == 0, "%.0f corruption-phase mismatches", corrupt)
	g.require(g.at("checksum failures", x) > 0, "checksums caught nothing")
	g.require(g.at("quarantined", x) > 0, "nothing quarantined")
	g.require(g.at("repaired", x) > 0, "nothing repaired")
	g.require(g.at("degraded after repair", x) == 0, "degraded reads after repair")
	g.require(g.at("sheds", x) > 0, "overload shed nothing")
	g.require(g.at("cancellations", x) > 0, "cancellation not counted")
	g.require(queryRatio <= maxChecksumOverhead, "checksum query overhead %.3fx > %.2fx", queryRatio, maxChecksumOverhead)
	g.require(qpsRatio <= maxChecksumOverhead, "checksum QPS overhead %.3fx > %.2fx", qpsRatio, maxChecksumOverhead)
	return g.err()
}
