// Package repro is the public facade of this reproduction of
// "Independent Quantization: An Index Compression Technique for
// High-Dimensional Data Spaces" (Berchtold, Böhm, Jagadish, Kriegel,
// Sander; ICDE 2000).
//
// It re-exports the stable surface of the internal packages:
//
//   - the IQ-tree itself (BuildIQTree), the paper's contribution: a
//     three-level compressed index with per-page optimal quantization and
//     a time-optimized nearest-neighbor page access strategy;
//   - the comparators of the paper's evaluation: X-tree (BuildXTree),
//     VA-file (BuildVAFile) and sequential scan (BuildScan);
//   - the block store all of them run on: either the simulated backend
//     (NewStore) that turns page accesses into the paper's metric —
//     elapsed seconds — or a real file-backed store (OpenFileStore) that
//     persists the index across processes. Both share an optional
//     buffer-pool cache (Store.SetCache);
//   - the workload generators of the evaluation (GenUniform, GenCAD,
//     GenColor, GenWeather).
//
// Quickstart:
//
//	sto := repro.NewStore(repro.DefaultStoreConfig())
//	tree, err := repro.BuildIQTree(sto, points, repro.DefaultIQTreeOptions())
//	...
//	s := sto.NewSession()
//	nn, err := tree.KNN(s, query, 1)
//	fmt.Println(nn[0].ID, nn[0].Dist, s.Time()) // result + simulated seconds
//
// To persist the tree on real files and reopen it in another process:
//
//	sto, err := repro.OpenFileStore("/tmp/iq", repro.DefaultStoreConfig())
//	tree, err := repro.BuildIQTree(sto, points, repro.DefaultIQTreeOptions())
//	err = sto.Close()
//	// later, possibly elsewhere:
//	sto, err = repro.OpenFileStore("/tmp/iq", repro.DefaultStoreConfig())
//	tree, err = repro.OpenIQTree(sto)
package repro

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fractal"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// Point is a d-dimensional float32 point.
type Point = vec.Point

// MBR is a minimum bounding rectangle.
type MBR = vec.MBR

// Neighbor is one similarity-search result.
type Neighbor = vec.Neighbor

// Metric selects the distance metric.
type Metric = vec.Metric

// Supported metrics.
const (
	Euclidean = vec.Euclidean
	Maximum   = vec.Maximum
)

// MBROf computes the minimum bounding rectangle of a point set.
func MBROf(pts []Point) MBR { return vec.MBROf(pts) }

// Store is the block store all access methods run on. It wraps a
// backend (simulated or file-backed) with cost accounting and an
// optional buffer-pool cache.
type Store = store.Store

// StoreConfig holds the block size and the simulated hardware parameters
// used for cost accounting.
type StoreConfig = store.Config

// Session tracks one query's simulated I/O and CPU cost.
type Session = store.Session

// StoreStats accumulates simulated cost counters.
type StoreStats = store.Stats

// BufferPool is the shared LRU page cache (see Store.SetCache).
type BufferPool = store.BufferPool

// PoolStats reports buffer-pool hit/miss/eviction counters.
type PoolStats = store.PoolStats

// NewStore creates a store over the simulated in-memory backend — the
// paper's evaluation environment.
func NewStore(cfg StoreConfig) *Store { return store.NewSim(cfg) }

// OpenFileStore creates (or reopens) a store whose blocks live in real
// files under dir, one file per index component.
func OpenFileStore(dir string, cfg StoreConfig) (*Store, error) {
	return store.OpenFileStore(dir, cfg)
}

// DefaultStoreConfig returns parameters calibrated to the paper's testbed.
func DefaultStoreConfig() StoreConfig { return store.DefaultConfig() }

// IQTree is the paper's three-level compressed index.
type IQTree = core.Tree

// IQTreeOptions configures IQ-tree construction.
type IQTreeOptions = core.Options

// IQTreeStats summarizes an IQ-tree's physical structure.
type IQTreeStats = core.Stats

// QueryTrace records the physical work of one IQ-tree query.
type QueryTrace = core.Trace

// MetricsRegistry is a named set of counters, gauges and latency
// histograms; see Metrics for the process-wide instance.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time, JSON-serializable copy of a
// registry's metrics.
type MetricsSnapshot = obs.Snapshot

// Metrics returns the process-wide default metrics registry that the
// experiment harness records into.
func Metrics() *MetricsRegistry { return obs.Default() }

// StartDebugServer serves expvar, pprof and a /metrics snapshot on addr
// in the background, returning the bound address.
func StartDebugServer(addr string) (string, error) { return obs.StartDebugServer(addr) }

// DefaultIQTreeOptions returns the paper's full IQ-tree configuration.
func DefaultIQTreeOptions() IQTreeOptions { return core.DefaultOptions() }

// BuildIQTree bulk-loads an IQ-tree over pts (point i gets id i) with
// optimal per-page quantization: it plans the layout on up to GOMAXPROCS
// goroutines, then writes it to sto; the tree does not depend on how many.
func BuildIQTree(sto *Store, pts []Point, opt IQTreeOptions) (*IQTree, error) {
	return core.Build(sto, pts, opt)
}

// OpenIQTree reopens the IQ-tree that a previous BuildIQTree (plus any
// later maintenance) left on the store.
func OpenIQTree(sto *Store) (*IQTree, error) {
	return core.Open(sto)
}

// XTree is the hierarchical-index comparator.
type XTree = xtree.Tree

// XTreeOptions configures an X-tree.
type XTreeOptions = xtree.Options

// DefaultXTreeOptions returns the X-tree paper's parameters.
func DefaultXTreeOptions() XTreeOptions { return xtree.DefaultOptions() }

// BuildXTree constructs an X-tree over pts by dynamic insertion.
func BuildXTree(sto *Store, pts []Point, opt XTreeOptions) (*XTree, error) {
	return xtree.Build(sto, pts, opt)
}

// VAFile is the compression-based comparator.
type VAFile = vafile.VAFile

// VAFileOptions configures a VA-file.
type VAFileOptions = vafile.Options

// DefaultVAFileOptions returns the classic VA-file configuration.
func DefaultVAFileOptions() VAFileOptions { return vafile.DefaultOptions() }

// BuildVAFile constructs a VA-file over pts.
func BuildVAFile(sto *Store, pts []Point, opt VAFileOptions) (*VAFile, error) {
	return vafile.Build(sto, pts, opt)
}

// Scan is the sequential-scan reference method.
type Scan = scan.Scan

// BuildScan stores pts in a flat file for sequential scanning.
func BuildScan(sto *Store, pts []Point, met Metric) (*Scan, error) {
	return scan.Build(sto, pts, met)
}

// DatasetName identifies one of the evaluation workloads.
type DatasetName = dataset.Name

// The paper's evaluation workloads (CAD/COLOR/WEATHER are synthetic
// stand-ins for the unavailable originals; see DESIGN.md).
const (
	DatasetUniform = dataset.Uniform
	DatasetCAD     = dataset.CAD
	DatasetColor   = dataset.Color
	DatasetWeather = dataset.Weather
)

// GenerateDataset produces n points of the named workload.
func GenerateDataset(name DatasetName, seed int64, n, d int) ([]Point, error) {
	return dataset.Generate(name, seed, n, d)
}

// GenUniform returns n points uniform in [0,1]^d.
func GenUniform(seed int64, n, d int) []Point { return dataset.GenUniform(seed, n, d) }

// GenCAD returns n 16-d CAD-like points (moderately clustered).
func GenCAD(seed int64, n int) []Point { return dataset.GenCAD(seed, n) }

// GenColor returns n 16-d color-histogram-like points (slightly clustered).
func GenColor(seed int64, n int) []Point { return dataset.GenColor(seed, n) }

// GenWeather returns n 9-d weather-like points (highly clustered, low
// fractal dimension).
func GenWeather(seed int64, n int) []Point { return dataset.GenWeather(seed, n) }

// SplitDataset separates a generated set into a database and a held-out,
// identically distributed query workload.
func SplitDataset(pts []Point, queries int) (db, qs []Point) {
	return dataset.Split(pts, queries)
}

// FractalDimension estimates the correlation fractal dimension D_F used
// by the IQ-tree cost model.
func FractalDimension(pts []Point, met Metric) float64 {
	return fractal.Estimate(pts, met)
}

// Index is the common query contract of all four access methods: the
// IQ-tree, X-tree, VA-file and Scan all implement it, so serving code
// can be written once against the interface.
type Index = index.Index

// ApproxSearcher is implemented by indexes supporting approximate KNN
// (the IQ-tree): KNNApprox takes a recall target minRecall ∈ [0, 1] and
// stops once the modeled probability that any unfetched page still
// improves the top-k drops below ε = 1 − minRecall; 0 (and 1) executes
// exactly. Set EngineQuery.MinRecall to run approximate queries through
// an Engine or a shard coordinator. Indexes without it serve approximate
// queries exactly.
type ApproxSearcher = index.ApproxSearcher

// Engine is the parallel serving layer: a worker pool draining a query
// queue against one Index, one pooled session per worker. Queries
// observe consistent copy-on-write snapshots and never block updates.
type Engine = engine.Engine

// EngineQuery is one unit of work for an Engine (KNN, range or window).
type EngineQuery = engine.Query

// EngineResult is the outcome of one EngineQuery: neighbors, the query's
// simulated cost, wall time, and an optional plan trace.
type EngineResult = engine.Result

// Engine query kinds.
const (
	QueryKNN    = engine.KNN
	QueryRange  = engine.Range
	QueryWindow = engine.Window
)

// NewEngine starts a query engine with the given worker count over idx.
// Close it to drain and stop the workers.
func NewEngine(sto *Store, idx Index, workers int) *Engine {
	return engine.New(sto, idx, workers)
}

// NewEngineWithMetrics is NewEngine with the engine's queue/latency
// metrics registered in reg instead of a private registry.
func NewEngineWithMetrics(sto *Store, idx Index, workers int, reg *MetricsRegistry) *Engine {
	return engine.New(sto, idx, workers, engine.WithRegistry(reg))
}
