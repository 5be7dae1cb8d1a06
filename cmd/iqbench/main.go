// Command iqbench regenerates the paper's evaluation figures (Figures
// 7–12 of "Independent Quantization", ICDE 2000) on the simulated disk,
// and runs the serving stack's figures with their acceptance gates.
//
// Usage:
//
//	iqbench -fig all            # every figure at paper scale (slow)
//	iqbench -fig 8 -scale 0.05  # figure 8 at 5% of the paper's N
//	iqbench -fig 9 -csv out.csv # also dump CSV rows
//	iqbench -fig faults -gate   # seeded fault-injection campaign, gated
//
// The serving figures (scaling, shards, ingest, approx, faults) sweep a
// fixed parameter and report one series per measured
// quantity; -gate fails the run unless the requested figures'
// acceptance thresholds hold.
//
// -metrics <file.json> writes a machine-readable report after the run:
// every figure's series plus a snapshot of the process-wide metrics
// registry (query counts, seek/block totals, latency histograms with
// p50/p95/p99). -debug-addr <host:port> serves expvar and pprof while
// the benchmark runs, e.g. -debug-addr 127.0.0.1:6060 then visit
// /metrics, /debug/vars or /debug/pprof/.
//
// The paper figures report average simulated seconds per nearest-neighbor
// query; shapes (who wins, crossover dimensions, speed-up factors) are the
// reproduction target, not the paper's absolute values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "iqbench: %v\n", err)
		os.Exit(1)
	}
}

// runners are the experiments, keyed by their -fig name.
var runners = map[string]func(experiments.RunOpts) (experiments.Figure, error){
	"7": experiments.Figure7, "8": experiments.Figure8, "9": experiments.Figure9,
	"10": experiments.Figure10, "11": experiments.Figure11, "12": experiments.Figure12,
	"va-bits": experiments.AblationVABits, "cost-model": experiments.AblationCostModel,
	"knn": experiments.AblationKNN, "model": experiments.ModelValidation,
	"fixed-bits": experiments.AblationFixedBits,
	"scaling":    runScaling, "shards": runShards, "ingest": runIngest,
	"approx": runApprox, "faults": runFaults,
}

// gates are the acceptance thresholds -gate checks, keyed by figure ID;
// a serving figure's ID is its -fig name.
var gates = map[string]func(experiments.Figure) error{
	"scaling": checkScaling, "shards": checkShards, "ingest": checkIngest,
	"approx": checkApprox, "faults": checkFaults,
}

// metricsReport is the schema of the -metrics JSON file.
type metricsReport struct {
	Date    string               `json:"date"`
	Scale   float64              `json:"scale"`
	Queries int                  `json:"queries"`
	Seed    int64                `json:"seed"`
	Figures []experiments.Figure `json:"figures"`
	Metrics obs.Snapshot         `json:"metrics"`
}

func run() error {
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)
	var (
		figFlag   = flag.String("fig", "all", "comma-separated figures to run ("+strings.Join(names, ", ")+"), or 'all' for Figs. 7-12")
		scale     = flag.Float64("scale", 1.0, "fraction of the paper's database sizes")
		queries   = flag.Int("queries", 50, "query points per configuration")
		seed      = flag.Int64("seed", 42, "dataset seed")
		csvPath   = flag.String("csv", "", "also write CSV rows to this file")
		chart     = flag.Bool("chart", false, "also render ASCII charts")
		quickFlag = flag.Bool("quick", false, "shorthand for -scale 0.04 -queries 20")
		metrics   = flag.String("metrics", "", "write a machine-readable JSON report (figures + registry snapshot) to this file")
		debugAddr = flag.String("debug-addr", "", "serve expvar + pprof on this address while running (e.g. 127.0.0.1:6060)")
		gate      = flag.Bool("gate", false, "fail unless every requested figure's acceptance thresholds hold (serving figures only)")
	)
	flag.Parse()
	if *quickFlag {
		*scale = 0.04
		*queries = 20
	}
	var order []string
	if *figFlag == "all" {
		order = []string{"7", "8", "9", "10", "11", "12"}
	} else {
		for _, f := range strings.Split(*figFlag, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				return fmt.Errorf("unknown figure %q (want one of %s, or all)", f, strings.Join(names, ", "))
			}
			order = append(order, f)
		}
	}
	if *gate {
		// A gate run that checks nothing must not pass.
		for _, f := range order {
			if gates[f] == nil {
				return fmt.Errorf("-gate: figure %s has no gate", f)
			}
		}
	}
	if *debugAddr != "" {
		addr, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		fmt.Printf("debug server on http://%s (/metrics, /debug/vars, /debug/pprof/)\n\n", addr)
	}
	opts := experiments.RunOpts{Scale: *scale, Queries: *queries, Seed: *seed}

	var csv strings.Builder
	var figures []experiments.Figure
	for _, f := range order {
		start := time.Now()
		fig, err := runners[f](opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		fmt.Println(fig.Format())
		if *chart {
			fmt.Println(fig.Chart(true))
		}
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
		csv.WriteString(fig.CSV())
		figures = append(figures, fig)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	if *metrics != "" {
		report := metricsReport{
			Date:    time.Now().UTC().Format(time.RFC3339),
			Scale:   *scale,
			Queries: *queries,
			Seed:    *seed,
			Figures: figures,
			Metrics: obs.Default().Snapshot(),
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("encode metrics: %w", err)
		}
		if err := os.WriteFile(*metrics, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}
	if *gate {
		for i, f := range order {
			if err := gates[f](figures[i]); err != nil {
				return err
			}
			fmt.Printf("%s gate OK\n", f)
		}
	}
	return nil
}

// add appends the point (x, y) to the figure's series label, creating
// the series on first use: series keep the order the runner reports
// them in.
func add(fig *experiments.Figure, label string, x, y float64) {
	for i := range fig.Series {
		if fig.Series[i].Label == label {
			fig.Series[i].X = append(fig.Series[i].X, x)
			fig.Series[i].Y = append(fig.Series[i].Y, y)
			return
		}
	}
	fig.Series = append(fig.Series, experiments.Series{Label: label, X: []float64{x}, Y: []float64{y}})
}

// ratio returns a/b, or 0 when b is 0 (nothing measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gateCheck collects one gate's failed thresholds. A point the figure
// lacks is a failure of its own and reads as NaN, so every threshold
// written as the condition that must hold fails on it too.
type gateCheck struct {
	fig   experiments.Figure
	fails []string
}

// at returns the series label's value at x.
func (g *gateCheck) at(label string, x float64) float64 {
	for _, s := range g.fig.Series {
		if s.Label != label {
			continue
		}
		for i := range s.X {
			if s.X[i] == x {
				return s.Y[i]
			}
		}
	}
	g.fails = append(g.fails, fmt.Sprintf("no %q point at %s %g", label, g.fig.XLabel, x))
	return math.NaN()
}

// require records a failure unless ok holds.
func (g *gateCheck) require(ok bool, format string, args ...any) {
	if !ok {
		g.fails = append(g.fails, fmt.Sprintf(format, args...))
	}
}

// err reports the failures, or nil when every threshold held.
func (g *gateCheck) err() error {
	if len(g.fails) == 0 {
		return nil
	}
	return fmt.Errorf("%s gate FAILED: %s", g.fig.ID, strings.Join(g.fails, "; "))
}
