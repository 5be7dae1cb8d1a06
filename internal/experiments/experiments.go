// Package experiments reproduces the paper's evaluation (Section 4,
// Figures 7–12): it builds the competing access methods over the paper's
// workloads, runs nearest-neighbor query batches against the simulated
// disk, and reports the average simulated seconds per query — the same
// metric, series and axes as the paper's figures.
package experiments

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// Method identifies an access method (or IQ-tree ablation variant).
type Method string

// The methods compared in the paper's figures.
const (
	IQTree     Method = "IQ-tree"
	IQNoQuant  Method = "IQ-tree (no quantization)"
	IQNoOptIO  Method = "IQ-tree (standard NN-search)"
	IQPlain    Method = "IQ-tree (no quant, standard NN)"
	XTree      Method = "X-tree"
	VAFile     Method = "VA-file"
	Scan       Method = "Scan"
	IQUniform  Method = "IQ-tree (uniform cost model)"
	VAFileUnif Method = "VA-file (uniform bounds)"
)

// Config describes one experimental cell: a workload plus query batch.
type Config struct {
	Dataset dataset.Name
	Seed    int64
	N       int // database size
	Dim     int // dimensionality (uniform only; fixed for real sets)
	Queries int // number of query points (held out of the database)
	K       int // neighbors per query (the paper uses 1)
	Disk    store.Config
	VABits  []int // candidate VA-file bits per dimension (paper: 2..8)
}

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Queries <= 0 {
		c.Queries = 50
	}
	if c.K <= 0 {
		c.K = 1
	}
	if c.Disk.BlockSize == 0 {
		c.Disk = store.DefaultConfig()
	}
	if len(c.VABits) == 0 {
		c.VABits = []int{2, 3, 4, 5, 6, 7, 8}
	}
	if d := c.Dataset.Dim(); d != 0 {
		c.Dim = d
	}
	return c
}

// data generates the database and the held-out query workload.
func (c Config) data() (db, queries []vec.Point, err error) {
	pts, err := dataset.Generate(c.Dataset, c.Seed, c.N+c.Queries, c.Dim)
	if err != nil {
		return nil, nil, err
	}
	db, queries = dataset.Split(pts, c.Queries)
	return db, queries, nil
}

// Result is the measured cost of one method on one configuration.
type Result struct {
	Method  Method
	Seconds float64     // average simulated seconds per query
	Stats   store.Stats // aggregate over the whole batch
	Detail  string      // method-specific notes (e.g. chosen VA-file bits)
}

// Run measures the given methods on one configuration. Every method gets
// its own fresh simulated disk; queries run sequentially, each on its own
// session, and the reported time is the per-query average.
func Run(cfg Config, methods []Method) ([]Result, error) {
	cfg = cfg.withDefaults()
	db, queries, err := cfg.data()
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(methods))
	for _, m := range methods {
		res, err := runMethod(cfg, m, db, queries)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func runMethod(cfg Config, m Method, db, queries []vec.Point) (Result, error) {
	sto := store.NewSim(cfg.Disk)
	var (
		idx    index.Index
		detail string
	)
	switch m {
	case IQTree, IQNoQuant, IQNoOptIO, IQPlain, IQUniform:
		opt := core.DefaultOptions()
		switch m {
		case IQNoQuant:
			opt.Quantize = false
		case IQNoOptIO:
			opt.OptimizedIO = false
		case IQPlain:
			opt.Quantize = false
			opt.OptimizedIO = false
		case IQUniform:
			opt.FractalDim = float64(len(db[0])) // D_F = d
		}
		t, err := core.Build(sto, db, opt)
		if err != nil {
			return Result{}, err
		}
		st := t.Stats()
		detail = fmt.Sprintf("pages=%d D_F=%.1f", st.Pages, st.FractalDim)
		idx = t
	case XTree:
		t, err := xtree.Build(sto, db, xtree.DefaultOptions())
		if err != nil {
			return Result{}, err
		}
		st := t.Stats()
		detail = fmt.Sprintf("leaves=%d supernodes=%d height=%d", st.Leaves, st.Supernodes, st.Height)
		idx = t
	case VAFile, VAFileUnif:
		bits, err := TuneVAFile(cfg, db, queries, m == VAFileUnif)
		if err != nil {
			return Result{}, err
		}
		opt := vafile.DefaultOptions()
		opt.Bits = bits
		opt.Uniform = m == VAFileUnif
		detail = fmt.Sprintf("bits=%d", bits)
		if idx, err = vafile.Build(sto, db, opt); err != nil {
			return Result{}, err
		}
	case Scan:
		var err error
		if idx, err = scan.Build(sto, db, vec.Euclidean); err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("experiments: unknown method %q", m)
	}
	secs, stats, err := measure(sto, idx, queries, cfg.K)
	if err != nil {
		return Result{}, err
	}
	obs.Default().Histogram("experiments.method." + string(m) + ".avg_seconds").Observe(secs)
	return Result{Method: m, Seconds: secs, Stats: stats, Detail: detail}, nil
}

// measure runs the query batch through a worker-pool engine and returns
// the per-query average simulated time plus aggregate stats. Each query
// gets its own (pooled, reset) session, and SubmitBatch returns results
// in query order, so the figures are deterministic regardless of
// scheduling.
func measure(sto *store.Store, idx index.Index, queries []vec.Point, k int) (float64, store.Stats, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	e := engine.New(sto, idx, workers, engine.WithRegistry(obs.Default()))
	defer e.Close()
	batch := make([]engine.Query, len(queries))
	for i, q := range queries {
		batch[i] = engine.Query{Kind: engine.KNN, Point: q, K: k}
	}
	results := e.SubmitBatch(batch)
	reg := obs.Default()
	lat := reg.Histogram("experiments.query_seconds")
	var agg store.Stats
	for _, res := range results {
		if res.Err != nil {
			return 0, store.Stats{}, res.Err
		}
		agg.Add(res.Stats)
		lat.Observe(res.SimTime)
	}
	reg.Counter("experiments.queries").Add(int64(len(queries)))
	reg.Counter("experiments.seeks").Add(int64(agg.Seeks))
	reg.Counter("experiments.blocks_read").Add(int64(agg.BlocksRead))
	return agg.Time(sto.Config()) / float64(len(queries)), agg, nil
}

// TuneVAFile replicates the paper's hand-tuning of the VA-file: it tries
// every candidate bits-per-dimension on a small prefix of the query
// workload and returns the cheapest. The paper stresses that the VA-file
// needs this manual step while the IQ-tree adapts automatically.
func TuneVAFile(cfg Config, db, queries []vec.Point, uniform bool) (int, error) {
	cfg = cfg.withDefaults()
	tuneQ := queries
	if len(tuneQ) > 10 {
		tuneQ = tuneQ[:10]
	}
	best, bestT := cfg.VABits[0], math.Inf(1)
	for _, b := range cfg.VABits {
		sto := store.NewSim(cfg.Disk)
		opt := vafile.DefaultOptions()
		opt.Bits = b
		opt.Uniform = uniform
		v, err := vafile.Build(sto, db, opt)
		if err != nil {
			return 0, err
		}
		secs, _, err := measure(sto, v, tuneQ, cfg.K)
		if err != nil {
			return 0, err
		}
		if secs < bestT {
			best, bestT = b, secs
		}
	}
	return best, nil
}
