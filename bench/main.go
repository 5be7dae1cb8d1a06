// Command bench is the repository's benchmark. It runs four workloads
// against the IQ-tree on the file store, each in two passes: an
// end-to-end pass with tracing off, and a traced pass that splits the
// time across the layers. Every answer is checked against a brute-force
// oracle. See README.md for the workloads and the metrics.
//
// From the repository root, one pass of one workload:
//
//	bash bench/run.sh --workload uniform-hot --seed 1 --seconds 8 --trace 0
//
// From bench/, every workload and both passes, keeping the results:
//
//	go run . -seed 1 -out ../.bench_build/runs
//	go run . -compare A/results.jsonl B/results.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 8, "run size: a workload does its rate times this many operations")
	trace := fs.String("trace", "both", "0: the end-to-end pass, 1: the traced per-layer pass, both: one then the other")
	out := fs.String("out", "", "directory to append results.jsonl to and to write <workload>.spans.jsonl in")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for the stores")
	compare := fs.Bool("compare", false, "compare the two results.jsonl files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("usage: bench -compare A.jsonl B.jsonl"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	specs := workloads
	if *workload != "all" {
		sp, ok := findSpec(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (want %s or all)", *workload, strings.Join(names, ", ")))
		}
		specs = []spec{sp}
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fail(fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }

	for _, sp := range specs {
		var untraced *passResult
		for _, traced := range passes {
			o := runOpts{seed: *seed, seconds: *seconds, trace: traced, setups: 3, work: *work}
			if traced {
				o.setups = 1
			}
			res, err := runPass(sp, o, logf)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", sp.name, err))
			}
			if traced && untraced != nil {
				addTraceOverhead(res, untraced)
			}
			if !traced {
				untraced = res
			}
			if *out != "" {
				if err := save(*out, sp.name, *seed, traced, res); err != nil {
					return fail(err)
				}
			}
			if err := report(stdout, sp.name, traced, res); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

// addTraceOverhead records how much slower the traced pass ran: traced
// over untraced median latency, for reads and for writes.
func addTraceOverhead(traced, untraced *passResult) {
	for _, m := range []struct{ name, metric string }{
		{"bench.trace_overhead.knn", "client.knn_p50_ms"},
		{"bench.trace_overhead.write", "client.write_p50_ms"},
	} {
		if u := untraced.values[m.metric]; u > 0 {
			traced.set(m.name, traced.values[m.metric]/u, traced.counts[m.metric])
		}
	}
}

// infoUnits are the units of the values printed beside the declared
// metrics.
var infoUnits = map[string]string{
	"bench.oracle_s": "s", "bench.elapsed_s": "s", "bench.span_violations": "count",
	"bench.lost_acked": "count", "bench.resurrected": "count",
	"bench.trace_overhead.knn": "ratio", "bench.trace_overhead.write": "ratio",
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	if strings.HasPrefix(name, "layer.self_ms.") {
		return "ms"
	}
	return infoUnits[name]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every value the pass measured, one per line with its
// unit and sample count, then the pass's declared metrics as one JSON
// object on the last line.
func report(w io.Writer, workload string, traced bool, res *passResult) error {
	pass, defs := "e2e", endToEnd
	if traced {
		pass, defs = "traced", perLayer
	}
	keys := make([]string, 0, len(res.values))
	for name := range res.values {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for _, name := range keys {
		fmt.Fprintf(w, "%-15s %-6s %-36s %14.6g %-5s n=%d\n", workload, pass, name, res.values[name], unitOf(name), res.counts[name])
	}
	fmt.Fprintf(w, "%-15s %-6s attempted=%d failed=%d wrong=%d\n", workload, pass, res.attempted, res.failed, res.wrong)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.wrong == 0, res.attempted, res.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// save appends the pass to dir/results.jsonl and, for a traced pass,
// writes its spans to dir/<workload>.spans.jsonl.
func save(dir, workload string, seed int64, traced bool, res *passResult) error {
	rl := resultLine{Workload: workload, Seed: seed, Correct: res.wrong == 0, Attempted: res.attempted,
		Failed: res.failed, Wrong: res.wrong, Metrics: res.values}
	if traced {
		rl.Trace = 1
		if err := writeSpans(filepath.Join(dir, workload+".spans.jsonl"), res.spans); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rl)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
