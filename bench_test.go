// Benchmarks regenerating the paper's evaluation figures, one benchmark
// per figure (paper Figs. 7–12), plus ablation benches for the design
// choices called out in DESIGN.md.
//
// Each sub-benchmark builds the access method once (cached across
// iterations), runs nearest-neighbor queries from a held-out workload,
// and reports the paper's metric — average *simulated* seconds per query —
// as the custom metric "sim-sec/query" next to Go's wall-clock ns/op.
// Benchmark scale is reduced from the paper's 500k points so the full
// suite completes quickly; cmd/iqbench runs the full-scale sweeps.
package repro_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/scan"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

const (
	benchN       = 20000
	benchQueries = 32
)

type benchIndex struct {
	sto *store.Store
	idx interface {
		KNN(*store.Session, vec.Point, int) ([]vec.Neighbor, error)
	}
	queries []vec.Point
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchIndex{}
)

// getIndex builds (once) the given method over the given workload.
func getIndex(b *testing.B, ds dataset.Name, n, dim int, method experiments.Method) *benchIndex {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d/%s", ds, n, dim, method)
	benchMu.Lock()
	defer benchMu.Unlock()
	if bi, ok := benchCache[key]; ok {
		return bi
	}
	pts, err := dataset.Generate(ds, 42, n+benchQueries, dim)
	if err != nil {
		b.Fatal(err)
	}
	db, queries := dataset.Split(pts, benchQueries)
	sto := store.NewSim(store.DefaultConfig())
	bi := &benchIndex{sto: sto, queries: queries}
	switch method {
	case experiments.IQTree, experiments.IQNoQuant, experiments.IQNoOptIO, experiments.IQPlain:
		opt := core.DefaultOptions()
		if method == experiments.IQNoQuant || method == experiments.IQPlain {
			opt.Quantize = false
		}
		if method == experiments.IQNoOptIO || method == experiments.IQPlain {
			opt.OptimizedIO = false
		}
		tr, err := core.Build(sto, db, opt)
		if err != nil {
			b.Fatal(err)
		}
		bi.idx = tr
	case experiments.XTree:
		tr, err := xtree.Build(sto, db, xtree.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		bi.idx = tr
	case experiments.VAFile:
		cfg := experiments.Config{Dataset: ds, N: n, Dim: dim, Queries: benchQueries}
		opt := vafile.DefaultOptions()
		bits, err := experiments.TuneVAFile(cfg, db, queries, false)
		if err != nil {
			b.Fatal(err)
		}
		opt.Bits = bits
		v, err := vafile.Build(sto, db, opt)
		if err != nil {
			b.Fatal(err)
		}
		bi.idx = v
	case experiments.Scan:
		sc, err := scan.Build(sto, db, vec.Euclidean)
		if err != nil {
			b.Fatal(err)
		}
		bi.idx = sc
	default:
		b.Fatalf("unknown method %s", method)
	}
	benchCache[key] = bi
	return bi
}

// runQueries benchmarks k-NN queries and reports simulated seconds/query.
func runQueries(b *testing.B, bi *benchIndex, k int) {
	b.Helper()
	var sim store.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bi.sto.NewSession()
		if _, err := bi.idx.KNN(s, bi.queries[i%len(bi.queries)], k); err != nil {
			b.Fatal(err)
		}
		sim.Add(s.Stats)
	}
	b.ReportMetric(sim.Time(bi.sto.Config())/float64(b.N), "sim-sec/query")
}

// BenchmarkFig7 regenerates paper Fig. 7: the concept ablation (±
// quantization × ± optimized page access) on UNIFORM data.
func BenchmarkFig7(b *testing.B) {
	for _, dim := range []int{8, 16} {
		for _, m := range []experiments.Method{
			experiments.IQTree, experiments.IQNoQuant, experiments.IQNoOptIO, experiments.IQPlain,
		} {
			b.Run(fmt.Sprintf("d=%d/%s", dim, short(m)), func(b *testing.B) {
				runQueries(b, getIndex(b, dataset.Uniform, benchN, dim, m), 1)
			})
		}
	}
}

// BenchmarkFig8 regenerates paper Fig. 8: IQ-tree vs X-tree, VA-file and
// scan on UNIFORM data of varying dimensionality.
func BenchmarkFig8(b *testing.B) {
	for _, dim := range []int{4, 8, 16} {
		for _, m := range []experiments.Method{
			experiments.IQTree, experiments.XTree, experiments.VAFile, experiments.Scan,
		} {
			b.Run(fmt.Sprintf("d=%d/%s", dim, short(m)), func(b *testing.B) {
				runQueries(b, getIndex(b, dataset.Uniform, benchN, dim, m), 1)
			})
		}
	}
}

// BenchmarkFig9 regenerates paper Fig. 9: UNIFORM d=16, varying N.
func BenchmarkFig9(b *testing.B) {
	for _, n := range []int{10000, 20000, 40000} {
		for _, m := range []experiments.Method{
			experiments.IQTree, experiments.XTree, experiments.VAFile, experiments.Scan,
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, short(m)), func(b *testing.B) {
				runQueries(b, getIndex(b, dataset.Uniform, n, 16, m), 1)
			})
		}
	}
}

// BenchmarkFig10 regenerates paper Fig. 10: the CAD workload, varying N.
func BenchmarkFig10(b *testing.B) {
	benchSizeFigure(b, dataset.CAD, []experiments.Method{
		experiments.IQTree, experiments.XTree, experiments.VAFile,
	})
}

// BenchmarkFig11 regenerates paper Fig. 11: the COLOR workload, varying N.
func BenchmarkFig11(b *testing.B) {
	benchSizeFigure(b, dataset.Color, []experiments.Method{
		experiments.IQTree, experiments.XTree, experiments.VAFile,
	})
}

// BenchmarkFig12 regenerates paper Fig. 12: the WEATHER workload, varying
// N (all four methods, like the paper).
func BenchmarkFig12(b *testing.B) {
	benchSizeFigure(b, dataset.Weather, []experiments.Method{
		experiments.IQTree, experiments.XTree, experiments.VAFile, experiments.Scan,
	})
}

func benchSizeFigure(b *testing.B, ds dataset.Name, methods []experiments.Method) {
	for _, n := range []int{10000, 20000} {
		for _, m := range methods {
			b.Run(fmt.Sprintf("n=%d/%s", n, short(m)), func(b *testing.B) {
				runQueries(b, getIndex(b, ds, n, 0, m), 1)
			})
		}
	}
}

// BenchmarkAblationVABits regenerates the paper's manual VA-file tuning
// (Section 4.2 tries 2..8 bits per dimension and keeps the best).
func BenchmarkAblationVABits(b *testing.B) {
	pts, _ := dataset.Generate(dataset.Uniform, 42, benchN+benchQueries, 16)
	db, queries := dataset.Split(pts, benchQueries)
	for _, bits := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			sto := store.NewSim(store.DefaultConfig())
			opt := vafile.DefaultOptions()
			opt.Bits = bits
			v, err := vafile.Build(sto, db, opt)
			if err != nil {
				b.Fatal(err)
			}
			var sim store.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sto.NewSession()
				if _, err := v.KNN(s, queries[i%len(queries)], 1); err != nil {
					b.Fatal(err)
				}
				sim.Add(s.Stats)
			}
			b.ReportMetric(sim.Time(sto.Config())/float64(b.N), "sim-sec/query")
		})
	}
}

// BenchmarkAblationCostModel contrasts the fractal cost model against the
// uniformity assumption on clustered data (DESIGN.md ablation).
func BenchmarkAblationCostModel(b *testing.B) {
	pts, _ := dataset.Generate(dataset.Weather, 42, benchN+benchQueries, 0)
	db, queries := dataset.Split(pts, benchQueries)
	for _, uniform := range []bool{false, true} {
		name := "fractal"
		if uniform {
			name = "uniform-assumption"
		}
		b.Run(name, func(b *testing.B) {
			sto := store.NewSim(store.DefaultConfig())
			opt := core.DefaultOptions()
			opt.UniformModel = uniform
			tr, err := core.Build(sto, db, opt)
			if err != nil {
				b.Fatal(err)
			}
			var sim store.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sto.NewSession()
				if _, err := tr.KNN(s, queries[i%len(queries)], 1); err != nil {
					b.Fatal(err)
				}
				sim.Add(s.Stats)
			}
			b.ReportMetric(sim.Time(sto.Config())/float64(b.N), "sim-sec/query")
		})
	}
}

// BenchmarkBuild measures construction cost (real time) of each method.
func BenchmarkBuild(b *testing.B) {
	pts, _ := dataset.Generate(dataset.Uniform, 42, benchN, 16)
	b.Run("iqtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sto := repro.NewStore(repro.DefaultStoreConfig())
			if _, err := repro.BuildIQTree(sto, pts, repro.DefaultIQTreeOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sto := repro.NewStore(repro.DefaultStoreConfig())
			if _, err := repro.BuildXTree(sto, pts, repro.DefaultXTreeOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vafile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sto := repro.NewStore(repro.DefaultStoreConfig())
			if _, err := repro.BuildVAFile(sto, pts, repro.DefaultVAFileOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func short(m experiments.Method) string {
	switch m {
	case experiments.IQTree:
		return "iqtree"
	case experiments.IQNoQuant:
		return "iq-noquant"
	case experiments.IQNoOptIO:
		return "iq-stdnn"
	case experiments.IQPlain:
		return "iq-plain"
	case experiments.XTree:
		return "xtree"
	case experiments.VAFile:
		return "vafile"
	case experiments.Scan:
		return "scan"
	default:
		return string(m)
	}
}

// BenchmarkAblationFixedBits compares forcing one quantization level into
// the tree against the optimized per-page choice (DESIGN.md ablation).
func BenchmarkAblationFixedBits(b *testing.B) {
	pts, _ := dataset.Generate(dataset.Uniform, 42, benchN+benchQueries, 16)
	db, queries := dataset.Split(pts, benchQueries)
	run := func(b *testing.B, opt core.Options) {
		sto := store.NewSim(store.DefaultConfig())
		tr, err := core.Build(sto, db, opt)
		if err != nil {
			b.Fatal(err)
		}
		var sim store.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sto.NewSession()
			if _, err := tr.KNN(s, queries[i%len(queries)], 1); err != nil {
				b.Fatal(err)
			}
			sim.Add(s.Stats)
		}
		b.ReportMetric(sim.Time(sto.Config())/float64(b.N), "sim-sec/query")
	}
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("fixed-%dbit", bits), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.FixedBits = bits
			run(b, opt)
		})
	}
	b.Run("optimized", func(b *testing.B) {
		run(b, core.DefaultOptions())
	})
}

// observerPairs is the number of interleaved untraced/traced samples
// BenchmarkObserverOverhead takes; odd, so the median is one pair's.
const observerPairs = 101

// BenchmarkObserverOverhead gates the observability layer on the
// Fig. 8 d=16 IQ-tree query path: "off" runs with no trace attached
// (the production default, where every hook is a nil check), "on"
// records a full per-query trace. A sample times b.N queries of one
// mode; kept short (ci.sh runs 40), it is shorter than the host's noise
// bursts. The samples come in observerPairs pairs, untraced then traced
// or the reverse, alternating which runs first, so drift and noise land
// on both modes alike. It reports the untraced ns/op and the median of
// the per-pair on/off ratios, which ci.sh bounds at 1.05; since the
// disabled path does strictly less work than the enabled one, that
// bounds the hooks' cost on the default path too.
func BenchmarkObserverOverhead(b *testing.B) {
	bi := getIndex(b, dataset.Uniform, benchN, 16, experiments.IQTree)
	tr := bi.idx.(*core.Tree)
	sample := func(traced bool) time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			s := bi.sto.NewSession()
			if traced {
				s.SetTrace(&core.Trace{})
			}
			if _, err := tr.KNN(s, bi.queries[i%len(bi.queries)], 1); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	ratios := make([]float64, observerPairs)
	var off time.Duration
	b.ResetTimer()
	for p := range ratios {
		var tOff, tOn time.Duration
		if p%2 == 0 {
			tOff = sample(false)
			tOn = sample(true)
		} else {
			tOn = sample(true)
			tOff = sample(false)
		}
		ratios[p] = float64(tOn) / float64(tOff)
		off += tOff
	}
	sort.Float64s(ratios)
	b.ReportMetric(float64(off.Nanoseconds())/float64(observerPairs*b.N), "ns/op")
	b.ReportMetric(ratios[observerPairs/2], "on/off")
}
