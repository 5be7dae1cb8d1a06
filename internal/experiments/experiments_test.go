package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// TestAllMethodsAgreeOnNearestNeighbor is the central cross-method
// integration test: IQ-tree (all variants), X-tree, VA-file and scan must
// return the same nearest-neighbor distances on the same workload.
func TestAllMethodsAgreeOnNearestNeighbor(t *testing.T) {
	for _, ds := range []dataset.Name{dataset.Uniform, dataset.CAD, dataset.Weather} {
		cfg := Config{Dataset: ds, Seed: 3, N: 4000, Dim: 10, Queries: 12}
		cfg = cfg.withDefaults()
		db, queries, err := cfg.data()
		if err != nil {
			t.Fatal(err)
		}

		var reference [][]float64
		{
			sto := store.NewSim(cfg.Disk)
			sc, err := scan.Build(sto, db, vec.Euclidean)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				res, err := sc.KNN(sto.NewSession(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				ds := make([]float64, len(res))
				for i, nb := range res {
					ds[i] = nb.Dist
				}
				reference = append(reference, ds)
			}
		}

		check := func(name string, knn func(q vec.Point) []vec.Neighbor) {
			for qi, q := range queries {
				res := knn(q)
				if len(res) != len(reference[qi]) {
					t.Fatalf("%s on %s: %d results, want %d", name, ds, len(res), len(reference[qi]))
				}
				for i := range res {
					if math.Abs(res[i].Dist-reference[qi][i]) > 1e-5 {
						t.Fatalf("%s on %s query %d: dist %.7f, want %.7f",
							name, ds, qi, res[i].Dist, reference[qi][i])
					}
				}
			}
		}

		for _, variant := range []struct {
			name string
			opt  core.Options
		}{
			{"iq", core.DefaultOptions()},
			{"iq-noquant", func() core.Options { o := core.DefaultOptions(); o.Quantize = false; return o }()},
			{"iq-noopt", func() core.Options { o := core.DefaultOptions(); o.OptimizedIO = false; return o }()},
			{"iq-maxmetric-model", func() core.Options { o := core.DefaultOptions(); o.FractalDim = float64(len(db[0])); return o }()},
		} {
			sto := store.NewSim(cfg.Disk)
			tr, err := core.Build(sto, db, variant.opt)
			if err != nil {
				t.Fatal(err)
			}
			check(variant.name, func(q vec.Point) []vec.Neighbor {
				res, err := tr.KNN(sto.NewSession(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
		}
		{
			sto := store.NewSim(cfg.Disk)
			xt, err := xtree.Build(sto, db, xtree.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check("xtree", func(q vec.Point) []vec.Neighbor {
				res, err := xt.KNN(sto.NewSession(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
		}
		{
			sto := store.NewSim(cfg.Disk)
			va, err := vafile.Build(sto, db, vafile.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check("vafile", func(q vec.Point) []vec.Neighbor {
				res, err := va.KNN(sto.NewSession(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
		}
	}
}

func TestRunProducesResultsForAllMethods(t *testing.T) {
	cfg := Config{Dataset: dataset.Uniform, Seed: 1, N: 3000, Dim: 8, Queries: 5}
	methods := []Method{IQTree, IQNoQuant, IQNoOptIO, IQPlain, XTree, VAFile, Scan}
	results, err := Run(cfg, methods)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(methods) {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.Seconds <= 0 {
			t.Fatalf("%s: non-positive time %f", r.Method, r.Seconds)
		}
		if r.Stats.BlocksRead == 0 {
			t.Fatalf("%s: no blocks read", r.Method)
		}
	}
}

func TestRunUnknownMethod(t *testing.T) {
	cfg := Config{Dataset: dataset.Uniform, Seed: 1, N: 1000, Dim: 4, Queries: 2}
	if _, err := Run(cfg, []Method{"nonsense"}); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestTuneVAFilePicksACandidate(t *testing.T) {
	cfg := Config{Dataset: dataset.Uniform, Seed: 2, N: 2000, Dim: 8, Queries: 5, VABits: []int{2, 6}}
	cfg = cfg.withDefaults()
	db, qs, _ := cfg.data()
	bits, err := TuneVAFile(cfg, db, qs, false)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 2 && bits != 6 {
		t.Fatalf("tuned bits %d not among candidates", bits)
	}
}

func TestFigureFormatAndCSV(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "test", XLabel: "n",
		Series: []Series{
			{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.25}},
			{Label: "B", X: []float64{1, 2}, Y: []float64{1.5, 1.25}},
		},
	}
	txt := fig.Format()
	for _, want := range []string{"figX", "A", "B", "0.5000", "1.2500"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("format output missing %q:\n%s", want, txt)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "figX,1,A,0.5") || !strings.Contains(csv, "figX,2,B,1.25") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
}

// TestFigureShapes runs tiny versions of the headline figures and asserts
// the qualitative results the paper reports.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shapes are slow")
	}
	opts := RunOpts{Scale: 0.016, Queries: 10, Seed: 7}

	// Fig. 8 at d=16: X-tree degenerates below the scan; the IQ-tree beats
	// both.
	cfg := Config{Dataset: dataset.Uniform, Seed: 7, N: 8000, Dim: 16, Queries: 10}
	res, err := Run(cfg, []Method{IQTree, XTree, Scan})
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[Method]float64{}
	for _, r := range res {
		byMethod[r.Method] = r.Seconds
	}
	if byMethod[XTree] < byMethod[Scan] {
		t.Errorf("d=16: X-tree (%f) should be worse than scan (%f)", byMethod[XTree], byMethod[Scan])
	}
	if byMethod[IQTree] > byMethod[Scan] {
		t.Errorf("d=16: IQ-tree (%f) should beat the scan (%f)", byMethod[IQTree], byMethod[Scan])
	}

	// Fig. 7 ablation at d=14: the optimized NN search must help the
	// quantized tree.
	fig7, err := Figure7(RunOpts{Scale: opts.Scale, Queries: opts.Queries, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range fig7.Series {
		series[s.Label] = s.Y
	}
	full := series[string(IQTree)]
	noOpt := series[string(IQNoOptIO)]
	last := len(full) - 1
	if full[last] > noOpt[last] {
		t.Errorf("optimized I/O should win at high d: %f vs %f", full[last], noOpt[last])
	}
}

func TestChartRendering(t *testing.T) {
	fig := Figure{
		ID: "c", Title: "chart", XLabel: "n",
		Series: []Series{
			{Label: "A", X: []float64{1, 2, 3}, Y: []float64{0.1, 0.2, 0.4}},
			{Label: "B", X: []float64{1, 2, 3}, Y: []float64{0.4, 0.2, 0.1}},
		},
	}
	for _, logY := range []bool{false, true} {
		out := fig.Chart(logY)
		for _, want := range []string{"c — chart", "*", "x", "A", "B", "(n)"} {
			if !strings.Contains(out, want) {
				t.Fatalf("chart (log=%v) missing %q:\n%s", logY, want, out)
			}
		}
	}
	if out := (Figure{ID: "e"}).Chart(false); !strings.Contains(out, "empty") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestAblationRunnersSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := RunOpts{Scale: 0.01, Queries: 5, Seed: 3,
		Config: Config{VABits: []int{3, 6}}}
	for name, fn := range map[string]func(RunOpts) (Figure, error){
		"va-bits":    AblationVABits,
		"cost-model": AblationCostModel,
		"knn":        AblationKNN,
	} {
		fig, err := fn(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(fig.Series) == 0 || len(fig.Series[0].Y) == 0 {
			t.Fatalf("%s: empty figure", name)
		}
		for _, s := range fig.Series {
			for i, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s %s[%d]: non-positive time", name, s.Label, i)
				}
			}
		}
	}
}
