package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
	cp, err := measureCleanPaths(plainSto, plainTree, checkedSto, checkedTree, qs, k)
	if err != nil {
		return experiments.Figure{}, err
	}
	add(&fig, "plain us/query", x, cp.plainUs)
	add(&fig, "checked us/query", x, cp.checkedUs)
	add(&fig, "query ratio", x, cp.queryRatio)
	add(&fig, "plain qps", x, cp.plainQPS)
	add(&fig, "checked qps", x, cp.checkedQPS)
	add(&fig, "qps ratio", x, cp.qpsRatio)

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

// cleanPairs is the number of interleaved plain/checksummed pairs each
// clean-path measurement takes; odd, so the median is one pair's.
const cleanPairs = 101

// cleanPaths is the clean-path cost of checksums: per direct query and
// in engine throughput. Each ratio (checksummed over plain time) is the
// median of the per-pair ratios; the absolute figures are the medians
// of each store's samples.
type cleanPaths struct {
	plainUs, checkedUs, queryRatio float64
	plainQPS, checkedQPS, qpsRatio float64
}

// measureCleanPaths times direct KNN queries and engine batch
// throughput on the plain and checksummed trees in interleaved pairs,
// alternating which store runs first, so clock drift, turbo states and
// GC land on both stores alike — the 5% gate must compare CRC cost, not
// machine noise.
func measureCleanPaths(plainSto *store.Store, plainTree *core.Tree,
	checkedSto *store.Store, checkedTree *core.Tree,
	qs []vec.Point, k int) (cleanPaths, error) {

	// A sample is short (the query set repeated to ~160 queries): host
	// noise comes in bursts longer than a pair, so it lands on both
	// halves of most pairs, and the median over many pairs discards the
	// rest.
	reps := (160 + len(qs) - 1) / len(qs)
	direct := func(sto *store.Store, tr *core.Tree) (float64, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, q := range qs {
				if _, err := tr.KNN(sto.NewSession(), q, k); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start).Seconds(), nil
	}
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
	plainD, checkedD, err := interleave(direct, plainSto, plainTree, checkedSto, checkedTree)
	if err != nil {
		return cleanPaths{}, err
	}
	plainT, checkedT, err := interleave(throughput, plainSto, plainTree, checkedSto, checkedTree)
	if err != nil {
		return cleanPaths{}, err
	}
	nq := float64(len(batch))
	return cleanPaths{
		plainUs:    1e6 * median(plainD) / nq,
		checkedUs:  1e6 * median(checkedD) / nq,
		queryRatio: medianRatio(checkedD, plainD),
		plainQPS:   nq / median(plainT),
		checkedQPS: nq / median(checkedT),
		qpsRatio:   medianRatio(checkedT, plainT),
	}, nil
}

// interleave takes cleanPairs pairs of samples of run, plain then
// checksummed or the reverse, alternating which runs first.
func interleave(run func(*store.Store, *core.Tree) (float64, error),
	plainSto *store.Store, plainTree *core.Tree,
	checkedSto *store.Store, checkedTree *core.Tree) (plain, checked []float64, err error) {

	plain = make([]float64, cleanPairs)
	checked = make([]float64, cleanPairs)
	for p := 0; p < cleanPairs; p++ {
		var errP, errC error
		if p%2 == 0 {
			plain[p], errP = run(plainSto, plainTree)
			checked[p], errC = run(checkedSto, checkedTree)
		} else {
			checked[p], errC = run(checkedSto, checkedTree)
			plain[p], errP = run(plainSto, plainTree)
		}
		if err := errors.Join(errP, errC); err != nil {
			return nil, nil, err
		}
	}
	return plain, checked, nil
}

// median returns the median of xs (odd length), leaving xs unchanged.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// medianRatio returns the median of the per-pair ratios num[i]/den[i].
func medianRatio(num, den []float64) float64 {
	r := make([]float64, len(num))
	for i := range num {
		r[i] = num[i] / den[i]
	}
	return median(r)
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
