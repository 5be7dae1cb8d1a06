package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Series is one curve of a figure.
type Series struct {
	Label  string
	X      []float64
	Y      []float64 // paper figures: average simulated seconds per query
	Detail []string
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// RunOpts scales a figure run. Scale multiplies the paper's database
// sizes (1.0 = full paper scale, e.g. 500,000 points).
type RunOpts struct {
	Scale   float64
	Queries int
	Seed    int64
	Config  Config // base overrides (Disk, K, VABits)
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Queries <= 0 {
		o.Queries = 50
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o RunOpts) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1000 {
		v = 1000
	}
	return v
}

// runGrid evaluates methods over a list of configurations (one X per
// configuration) and assembles the per-method series.
func runGrid(id, title, xlabel string, xs []float64, cfgs []Config, methods []Method) (Figure, error) {
	fig := Figure{ID: id, Title: title, XLabel: xlabel}
	series := make(map[Method]*Series, len(methods))
	for _, m := range methods {
		series[m] = &Series{Label: string(m)}
	}
	for i, cfg := range cfgs {
		results, err := Run(cfg, methods)
		if err != nil {
			return Figure{}, err
		}
		for _, r := range results {
			s := series[r.Method]
			s.X = append(s.X, xs[i])
			s.Y = append(s.Y, r.Seconds)
			s.Detail = append(s.Detail, r.Detail)
		}
	}
	for _, m := range methods {
		fig.Series = append(fig.Series, *series[m])
	}
	return fig, nil
}

// Figure7 reproduces paper Fig. 7: the impact of the IQ-tree's two
// concepts (quantization, optimized NN page access) on UNIFORM data of
// varying dimensionality (paper: 500,000 points, d = 4..16).
func Figure7(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	dims := []int{4, 6, 8, 10, 12, 14, 16}
	var cfgs []Config
	var xs []float64
	for _, d := range dims {
		cfg := o.Config
		cfg.Dataset = "uniform"
		cfg.Seed = o.Seed
		cfg.N = o.scaled(500000)
		cfg.Dim = d
		cfg.Queries = o.Queries
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(d))
	}
	return runGrid("fig7", "Impact of the particular concepts (UNIFORM)", "dimension",
		xs, cfgs, []Method{IQTree, IQNoQuant, IQNoOptIO, IQPlain})
}

// Figure8 reproduces paper Fig. 8: IQ-tree vs X-tree, VA-file and
// sequential scan on UNIFORM data of varying dimensionality.
func Figure8(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	dims := []int{4, 6, 8, 10, 12, 14, 16}
	var cfgs []Config
	var xs []float64
	for _, d := range dims {
		cfg := o.Config
		cfg.Dataset = "uniform"
		cfg.Seed = o.Seed
		cfg.N = o.scaled(500000)
		cfg.Dim = d
		cfg.Queries = o.Queries
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(d))
	}
	return runGrid("fig8", "Competitors on UNIFORM, varying dimension", "dimension",
		xs, cfgs, []Method{IQTree, XTree, VAFile, Scan})
}

// sizeFigure is the common shape of Figs. 9–12: fixed data set, varying N.
func sizeFigure(o RunOpts, id, title string, ds string, sizes []int, methods []Method) (Figure, error) {
	o = o.withDefaults()
	var cfgs []Config
	var xs []float64
	for _, n := range sizes {
		cfg := o.Config
		cfg.Dataset = dataset.Name(ds)
		cfg.Seed = o.Seed
		cfg.N = o.scaled(n)
		cfg.Queries = o.Queries
		if ds == "uniform" {
			cfg.Dim = 16
		}
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(cfg.N))
	}
	return runGrid(id, title, "number of points", xs, cfgs, methods)
}

// Figure9 reproduces paper Fig. 9: UNIFORM, 16 dimensions, varying N
// (paper: 100,000..500,000).
func Figure9(o RunOpts) (Figure, error) {
	return sizeFigure(o, "fig9", "Competitors on UNIFORM d=16, varying N", "uniform",
		[]int{100000, 200000, 300000, 400000, 500000},
		[]Method{IQTree, XTree, VAFile, Scan})
}

// Figure10 reproduces paper Fig. 10: the CAD data set (16-d, moderately
// clustered), varying N. The paper drops the scan ("out of question").
func Figure10(o RunOpts) (Figure, error) {
	return sizeFigure(o, "fig10", "CAD (16-d Fourier coefficients), varying N", "cad",
		[]int{100000, 200000, 300000, 400000, 500000},
		[]Method{IQTree, XTree, VAFile})
}

// Figure11 reproduces paper Fig. 11: the COLOR data set (16-d color
// histograms, only slightly clustered), varying N (paper: 40k..100k).
func Figure11(o RunOpts) (Figure, error) {
	return sizeFigure(o, "fig11", "COLOR (16-d histograms), varying N", "color",
		[]int{40000, 60000, 80000, 100000},
		[]Method{IQTree, XTree, VAFile})
}

// Figure12 reproduces paper Fig. 12: the WEATHER data set (9-d, highly
// clustered, low fractal dimension), varying N.
func Figure12(o RunOpts) (Figure, error) {
	return sizeFigure(o, "fig12", "WEATHER (9-d station data), varying N", "weather",
		[]int{100000, 200000, 300000, 400000, 500000},
		[]Method{IQTree, XTree, VAFile, Scan})
}

// Format renders the figure as an aligned text table: one row per X value,
// one column per series, in the unit of the paper's figures (seconds).
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	// Collect the union of X values (all series share them in practice).
	xset := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.0f", x)
		for _, s := range f.Series {
			y := lookup(s, x)
			if y < 0 {
				fmt.Fprintf(&b, " %22s", "-")
			} else {
				fmt.Fprintf(&b, " %22.4f", y)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the figure as comma-separated rows (x, series, seconds).
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "figure,x,method,seconds\n")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%s,%g\n", f.ID, s.X[i], s.Label, s.Y[i])
		}
	}
	return b.String()
}

func lookup(s Series, x float64) float64 {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i]
		}
	}
	return -1
}
