package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/vafile"
)

// AblationVABits regenerates the paper's manual VA-file tuning (Section
// 4.2: "we first tested the VA-file with different numbers of bits per
// dimension (between 2 and 8) and then selected the compression rate for
// which the VA-file performed best") as a figure: seconds per query as a
// function of the bits per dimension, one series per data set.
func AblationVABits(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	fig := Figure{
		ID:     "ablation-va-bits",
		Title:  "VA-file bits-per-dimension tuning (the step the IQ-tree automates)",
		XLabel: "bits per dimension",
	}
	workloads := []struct {
		ds dataset.Name
		n  int
	}{
		{dataset.Uniform, o.scaled(500000)},
		{dataset.Color, o.scaled(100000)},
		{dataset.Weather, o.scaled(500000)},
	}
	for _, w := range workloads {
		cfg := o.Config
		cfg.Dataset = w.ds
		cfg.Seed = o.Seed
		cfg.N = w.n
		cfg.Dim = 16
		cfg.Queries = o.Queries
		cfg = cfg.withDefaults()
		db, queries, err := cfg.data()
		if err != nil {
			return Figure{}, err
		}
		s := Series{Label: fmt.Sprintf("%s (N=%d)", w.ds, cfg.N)}
		for _, bits := range cfg.VABits {
			sto := store.NewSim(cfg.Disk)
			opt := vafile.DefaultOptions()
			opt.Bits = bits
			v, err := vafile.Build(sto, db, opt)
			if err != nil {
				return Figure{}, err
			}
			secs, _, err := measure(sto, v, queries, cfg.K)
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(bits))
			s.Y = append(s.Y, secs)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationCostModel contrasts the fractal cost model against the plain
// uniformity/independence assumption (paper Sec. 3.4) on data of varying
// clusteredness: it reports the measured query time of trees optimized
// under each assumption.
func AblationCostModel(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	fig := Figure{
		ID:     "ablation-cost-model",
		Title:  "Fractal vs uniform cost model (measured query time of the optimized tree)",
		XLabel: "workload (1=uniform16, 2=color, 3=cad, 4=weather)",
	}
	workloads := []struct {
		ds dataset.Name
		n  int
	}{
		{dataset.Uniform, o.scaled(200000)},
		{dataset.Color, o.scaled(100000)},
		{dataset.CAD, o.scaled(200000)},
		{dataset.Weather, o.scaled(200000)},
	}
	fractal := Series{Label: "fractal model (D_F estimated)"}
	uniform := Series{Label: "uniformity assumption (D_F = d)"}
	for wi, w := range workloads {
		cfg := o.Config
		cfg.Dataset = w.ds
		cfg.Seed = o.Seed
		cfg.N = w.n
		cfg.Dim = 16
		cfg.Queries = o.Queries
		cfg = cfg.withDefaults()
		db, queries, err := cfg.data()
		if err != nil {
			return Figure{}, err
		}
		for _, unif := range []bool{false, true} {
			sto := store.NewSim(cfg.Disk)
			opt := core.DefaultOptions()
			if unif {
				opt.FractalDim = float64(len(db[0])) // D_F = d
			}
			tr, err := core.Build(sto, db, opt)
			if err != nil {
				return Figure{}, err
			}
			secs, _, err := measure(sto, tr, queries, cfg.K)
			if err != nil {
				return Figure{}, err
			}
			st := tr.Stats()
			s := &fractal
			if unif {
				s = &uniform
			}
			s.X = append(s.X, float64(wi+1))
			s.Y = append(s.Y, secs)
			s.Detail = append(s.Detail, fmt.Sprintf("%s pages=%d D_F=%.1f", w.ds, st.Pages, st.FractalDim))
		}
	}
	fig.Series = []Series{fractal, uniform}
	return fig, nil
}

// AblationKNN sweeps the neighbor count k on a fixed workload — an
// extension beyond the paper's k=1 evaluation, exercising the k-NN
// variants of the search algorithm and the cost model.
func AblationKNN(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	cfg := o.Config
	cfg.Dataset = dataset.Uniform
	cfg.Seed = o.Seed
	cfg.N = o.scaled(200000)
	cfg.Dim = 16
	cfg.Queries = o.Queries
	cfg = cfg.withDefaults()
	db, queries, err := cfg.data()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-knn",
		Title:  fmt.Sprintf("k-NN sweep on UNIFORM d=16, N=%d", cfg.N),
		XLabel: "k",
	}
	ks := []int{1, 2, 5, 10, 20}

	build := func(kTarget int) (*store.Store, *core.Tree, error) {
		sto := store.NewSim(cfg.Disk)
		opt := core.DefaultOptions()
		opt.KNNTarget = kTarget
		tr, err := core.Build(sto, db, opt)
		return sto, tr, err
	}
	baseStore, baseTree, err := build(0)
	if err != nil {
		return Figure{}, err
	}
	vaStore := store.NewSim(cfg.Disk)
	va, err := vafile.Build(vaStore, db, vafile.DefaultOptions())
	if err != nil {
		return Figure{}, err
	}

	base := Series{Label: "IQ-tree (k=1 model)"}
	aware := Series{Label: "IQ-tree (k-aware model)"}
	vaSeries := Series{Label: "VA-file"}
	for _, k := range ks {
		secs, _, err := measure(baseStore, baseTree, queries, k)
		if err != nil {
			return Figure{}, err
		}
		base.X = append(base.X, float64(k))
		base.Y = append(base.Y, secs)

		kStore, kTree, err := build(k)
		if err != nil {
			return Figure{}, err
		}
		if secs, _, err = measure(kStore, kTree, queries, k); err != nil {
			return Figure{}, err
		}
		aware.X = append(aware.X, float64(k))
		aware.Y = append(aware.Y, secs)

		if secs, _, err = measure(vaStore, va, queries, k); err != nil {
			return Figure{}, err
		}
		vaSeries.X = append(vaSeries.X, float64(k))
		vaSeries.Y = append(vaSeries.Y, secs)
	}
	fig.Series = []Series{base, aware, vaSeries}
	return fig, nil
}

// ModelValidation compares the cost model's predicted query time
// (Eq. 23, after calibration) with the measured simulated time across the
// four workloads — a direct check of paper Section 3.4.
func ModelValidation(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	fig := Figure{
		ID:     "model-validation",
		Title:  "Cost model: predicted vs measured NN query time",
		XLabel: "workload (1=uniform16, 2=color, 3=cad, 4=weather)",
	}
	workloads := []struct {
		ds dataset.Name
		n  int
	}{
		{dataset.Uniform, o.scaled(200000)},
		{dataset.Color, o.scaled(100000)},
		{dataset.CAD, o.scaled(200000)},
		{dataset.Weather, o.scaled(200000)},
	}
	predicted := Series{Label: "model prediction"}
	measured := Series{Label: "measured"}
	for wi, w := range workloads {
		cfg := o.Config
		cfg.Dataset = w.ds
		cfg.Seed = o.Seed
		cfg.N = w.n
		cfg.Dim = 16
		cfg.Queries = o.Queries
		cfg = cfg.withDefaults()
		db, queries, err := cfg.data()
		if err != nil {
			return Figure{}, err
		}
		sto := store.NewSim(cfg.Disk)
		tr, err := core.Build(sto, db, core.DefaultOptions())
		if err != nil {
			return Figure{}, err
		}
		secs, _, err := measure(sto, tr, queries, cfg.K)
		if err != nil {
			return Figure{}, err
		}
		predicted.X = append(predicted.X, float64(wi+1))
		predicted.Y = append(predicted.Y, tr.CostEstimate())
		measured.X = append(measured.X, float64(wi+1))
		measured.Y = append(measured.Y, secs)
		measured.Detail = append(measured.Detail, string(w.ds))
	}
	fig.Series = []Series{predicted, measured}
	return fig, nil
}

// AblationFixedBits compares the IQ-tree's optimal per-page quantization
// against forcing a single fixed level into the same tree structure (the
// "VA-file inside a tree" configuration) — the quantization-level sweep
// of DESIGN.md.
func AblationFixedBits(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	cfg := o.Config
	cfg.Dataset = dataset.Uniform
	cfg.Seed = o.Seed
	cfg.N = o.scaled(200000)
	cfg.Dim = 16
	cfg.Queries = o.Queries
	cfg = cfg.withDefaults()
	db, queries, err := cfg.data()
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-fixed-bits",
		Title:  fmt.Sprintf("Fixed quantization level vs optimized (UNIFORM d=16, N=%d)", cfg.N),
		XLabel: "bits per dimension (0 = optimized per page)",
	}
	fixed := Series{Label: "IQ-tree structure, fixed level"}
	for _, bits := range []int{1, 2, 4, 8, 16} {
		sto := store.NewSim(cfg.Disk)
		opt := core.DefaultOptions()
		opt.FixedBits = bits
		tr, err := core.Build(sto, db, opt)
		if err != nil {
			return Figure{}, err
		}
		secs, _, err := measure(sto, tr, queries, cfg.K)
		if err != nil {
			return Figure{}, err
		}
		fixed.X = append(fixed.X, float64(bits))
		fixed.Y = append(fixed.Y, secs)
	}
	opt := Series{Label: "IQ-tree, optimized per page"}
	sto := store.NewSim(cfg.Disk)
	tr, err := core.Build(sto, db, core.DefaultOptions())
	if err != nil {
		return Figure{}, err
	}
	secs, _, err := measure(sto, tr, queries, cfg.K)
	if err != nil {
		return Figure{}, err
	}
	opt.X = append(opt.X, 0)
	opt.Y = append(opt.Y, secs)
	fig.Series = []Series{fixed, opt}
	return fig, nil
}
