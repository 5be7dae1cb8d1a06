package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root carries the same declarations (bench_test.go keeps the
// two in step); the harness emits exactly these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the index sees, measured with
// tracing off, on every workload. Bound is the share of the parent's
// median by which a metric may get worse before a change counts as a
// regression. Wall-clock read latency and throughput are not here: on
// the 2-CPU reference host they drift 10-70% between runs, more than
// any bound can hold (README.md, finding 7), so they are reported as
// client.* per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"knn_sim_ms", "ms", "lower", 0.25},
	{"bytes_per_user_byte", "B/B", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers, from the traced pass, named
// after the module they measure. A layer a workload does not exercise
// reports 0. The client.* entries are what the clients saw: end-to-end
// numbers that the host cannot hold steady (wall clock, CPU), that only
// some workloads have (writes, approximate reads), or that rest on one
// sample per run (recover_s). They are reported here, without a bound.
var perLayer = []metricDef{
	{Name: "shard.self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.self_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.fanout_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.useful_fanout", Unit: "ratio", Better: "higher"},
	{Name: "shard.straggler_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.failovers_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.service_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.write_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.write_service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.write_service_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.failures_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.sheds_per_op", Unit: "count", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pages_read", Unit: "count", Better: "lower"},
	{Name: "core.pages_pruned_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.refinements", Unit: "count", Better: "lower"},
	{Name: "core.refine_yield", Unit: "ratio", Better: "higher"},
	{Name: "core.sim_dir_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_quant_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_exact_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dist_cpu_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "core.skipped_pages", Unit: "count", Better: "higher"},
	{Name: "core.terminated_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.degraded_reads", Unit: "count", Better: "lower"},
	{Name: "kernel.approx_cpu_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "pagesched.batches_per_query", Unit: "count", Better: "lower"},
	{Name: "pagesched.overread_ratio", Unit: "ratio", Better: "lower"},
	{Name: "store.pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "store.pool_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "store.read_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "store.read_blocks_per_op", Unit: "count", Better: "lower"},
	{Name: "store.read_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "store.sync_per_write", Unit: "count", Better: "lower"},
	{Name: "store.sync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "store.sync_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "store.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "store.wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "store.wal.appends_per_fsync", Unit: "count", Better: "higher"},
	{Name: "store.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "store.file_mb.dir", Unit: "MiB", Better: "lower"},
	{Name: "store.file_mb.quant", Unit: "MiB", Better: "lower"},
	{Name: "store.file_mb.exact", Unit: "MiB", Better: "lower"},
	{Name: "store.file_mb.crc", Unit: "MiB", Better: "lower"},
	{Name: "store.file_mb.wal", Unit: "MiB", Better: "lower"},
	{Name: "store.file_mb.ckpt", Unit: "MiB", Better: "lower"},
	{Name: "store.file_mb.meta", Unit: "MiB", Better: "lower"},
	{Name: "client.knn_qps", Unit: "1/s", Better: "higher"},
	{Name: "client.knn_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.knn_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "client.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "client.write_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "client.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.approx_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.approx_recall_shortfall", Unit: "ratio", Better: "lower"},
	{Name: "client.recover_s", Unit: "s", Better: "lower"},
	{Name: "client.error_rate", Unit: "ratio", Better: "lower"},
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, or 0 for no samples. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// resultLine is one pass of one workload, as appended to results.jsonl.
type resultLine struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong"`
	Metrics   map[string]float64 `json:"metrics"`
}

func readResults(path string) (map[string][]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]resultLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r resultLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// verdict judges the runs b of a change against the runs a of its
// parent: "worse" when b's median is worse than a's by more than bound,
// "unresolved" when a's own spread (interquartile range over median)
// exceeds the bound, unless every run of b beats every run of a, and
// "within" otherwise. With abs set the bound and the spread are absolute
// differences, not shares of the median.
func verdict(a, b []float64, bound float64, higher, abs bool) string {
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	worse, spread := mb-ma, q3-q1
	if higher {
		worse = -worse
	}
	if !abs {
		if ma == 0 {
			return "unresolved"
		}
		worse, spread = worse/math.Abs(ma), spread/math.Abs(ma)
	}
	better := true
	for _, x := range b {
		for _, y := range a {
			if (higher && x <= y) || (!higher && x >= y) {
				better = false
			}
		}
	}
	switch {
	case better:
		return "within"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	}
	return "within"
}

// compareFiles prints one row per (metric, workload) pair found in both
// results files and reports whether any pair is worse.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %8s %6s  %s\n", "metric", "workload", "median A", "median B", "change", "IQR/med", "bound", "verdict")
	anyWorse := false
	row := func(metric, wl string, va, vb []float64, bound float64, higher, abs bool) {
		q1, ma, q3 := quartiles(va)
		_, mb, _ := quartiles(vb)
		change, spread := mb-ma, q3-q1
		if !abs && ma != 0 {
			change, spread = change/math.Abs(ma), spread/math.Abs(ma)
		}
		v := verdict(va, vb, bound, higher, abs)
		anyWorse = anyWorse || v == "worse"
		fmt.Fprintf(w, "%-20s %-16s %12.6g %12.6g %+8.3f %8.3f %6.3f  %s\n", metric, wl, ma, mb, change, spread, bound, v)
	}
	for _, m := range endToEnd {
		for _, wl := range names {
			va, vb := metricValues(a[wl], m.Name), metricValues(b[wl], m.Name)
			if len(va) > 0 && len(vb) > 0 {
				row(m.Name, wl, va, vb, m.Bound, m.Better == "higher", false)
			}
		}
	}
	for _, wl := range names {
		row("error_rate", wl, errorRates(a[wl]), errorRates(b[wl]), errorRateBound, false, true)
	}
	return anyWorse, nil
}

// errorRateBound is the absolute amount by which the share of failed or
// wrong operations may grow.
const errorRateBound = 0.001

func metricValues(rs []resultLine, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func errorRates(rs []resultLine) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Failed+r.Wrong) / math.Max(1, float64(r.Attempted))
	}
	return out
}
