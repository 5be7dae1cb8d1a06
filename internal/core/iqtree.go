// Package core implements the IQ-tree, the paper's primary contribution:
// a three-level compressed index for exact nearest-neighbor, k-nearest-
// neighbor and range search in high-dimensional point databases.
//
// Level 1 is a flat directory of exact MBRs, scanned sequentially per
// query. Level 2 holds fixed-size quantized data pages whose per-page
// quantization level g ∈ {1,2,4,8,16,32} is chosen by the cost-model
// optimization of Section 3.5. Level 3 holds exact coordinates, consulted
// only when a query cannot be decided on the approximation; 32-bit pages
// store exact data at level 2 and have no level-3 page.
//
// Queries run against a pluggable block store (package store) and report
// their cost in simulated seconds, reproducing the paper's time-based
// evaluation. On the simulator backend the accounting reproduces the
// paper's testbed; on the file-backed backend the same tree persists to a
// directory and can be reopened by another process.
//
// Concurrency: the tree is multi-version. Every query pins an immutable
// directory snapshot with one atomic load and runs lock-free against it;
// Insert, InsertBatch and Delete serialize on a writer mutex, write new
// page versions out of place and publish the next snapshot atomically,
// so readers and writers overlap freely (see DESIGN.md §8). Reoptimize
// builds the next generation of the data files beside the live ones
// while queries and updates run; only its final swap to that generation
// excludes them, via a readers-writer lock that every entry point takes
// in read mode.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/fractal"
	"repro/internal/index"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// Options configures construction of an IQ-tree.
type Options struct {
	// Metric is the query metric. Default Euclidean.
	Metric vec.Metric
	// QPageBlocks is the fixed size of a quantized data page in disk
	// blocks. Default 1.
	QPageBlocks int
	// Quantize enables independent quantization. When false, every page
	// stores exact 32-bit coordinates (the "no quantization" ablation of
	// paper Fig. 7: a plain bulk-loaded flat index).
	Quantize bool
	// OptimizedIO enables the time-optimized page access strategy of
	// Section 2.1. When false, the search loads one page per random
	// access, like a conventional index (the "standard NN-search"
	// ablation of Fig. 7).
	OptimizedIO bool
	// FractalDim is the fractal dimension D_F used by the cost model;
	// 0 means "estimate from the data" (correlation dimension).
	FractalDim float64
	// UniformModel forces the uniformity/independence cost model
	// (D_F = d) regardless of FractalDim; an ablation knob.
	UniformModel bool
	// RefineCostFactor scales the cost model's refinement (third-level)
	// cost during optimization. 1 uses the paper's model as-is; 0 means
	// "calibrate empirically from sampled self-queries" (the default).
	RefineCostFactor float64
	// KNNTarget is the neighbor count the cost model optimizes for
	// (paper footnote: the k-NN extension of Eq. 7/14/17). Default 1.
	// Queries with any k remain exact regardless of this knob.
	KNNTarget int
	// FixedBits, when non-zero, disables the optimal quantization and
	// stores every page at this level (must be one of 1,2,4,8,16,32) —
	// the "VA-file inside a tree" ablation against which the independent
	// (per-page) quantization is compared.
	FixedBits int
	// WAL enables write-ahead logging: Insert/InsertBatch/Delete are
	// acknowledged only once their logical record is durable in the log
	// (a mutation's commit is one flush and one fsync; the engine's
	// write lane batches bursts of inserts into one InsertBatch), and
	// Open replays the log after a crash, restoring exactly the
	// acknowledged state. See DESIGN.md §13.
	WAL bool
	// WALCheckpointBlocks triggers an automatic checkpoint once the log
	// grows past this many blocks (0 = only explicit/maintenance
	// checkpoints). Only meaningful with WAL.
	WALCheckpointBlocks int
	// AutoReoptimize drives incremental reoptimization from the write
	// path: when a trigger fires (garbage ratio or quarantine pressure),
	// each acknowledged mutation also advances the rebuild by one
	// bounded step. The zero value disables it. A runtime knob — not
	// persisted in the meta file. See autoreopt.go.
	AutoReoptimize AutoReoptPolicy
}

// DefaultOptions returns the paper's full IQ-tree configuration.
func DefaultOptions() Options {
	return Options{
		Metric:      vec.Euclidean,
		QPageBlocks: 1,
		Quantize:    true,
		OptimizedIO: true,
	}
}

// Tree is a multi-version IQ-tree: searches pin an immutable snapshot
// and run lock-free; Insert and Delete serialize on the writer mutex and
// publish copy-on-write snapshots, so concurrent searches and updates
// are safe. The final swap step of Reoptimize is the only
// stop-the-world operation.
type Tree struct {
	// world excludes the final reoptimize swap (write side) from
	// everything else (read side): queries and incremental updates hold
	// it shared, so they overlap freely; the swap repoints the data files
	// to the next generation and must drain them first.
	world sync.RWMutex
	mu    sync.Mutex // serializes writers (Insert/InsertBatch/Delete)
	snap  atomic.Pointer[snapshot]
	// reoptGen counts Reoptimize runs; a cursor records it when it
	// begins, and a round ends it with index.ErrStaleScan across a
	// compaction (its pinned snapshot would point into rewritten file
	// regions).
	reoptGen atomic.Uint64

	// quar tracks quarantined physical positions of the quantized file:
	// pages whose blocks failed checksum verification and are being
	// answered from their exact (level-3) shadow (see quarantine.go).
	quarMu sync.Mutex
	quar   map[int]struct{}

	opt Options
	sto *store.Store

	metaFile *store.File // superblock (see persist.go)
	dirFile  *store.File // level 1: directory entries
	qFile    *store.File // level 2: fixed-size quantized pages
	eFile    *store.File // level 3: exact pages (variable size)

	// gen numbers the live data-file generation: qFile/eFile are the
	// genName-suffixed files of this generation, and incremental
	// reoptimization builds generation gen+1 beside them. Only the final
	// reoptimize step (under world.Lock) changes gen or the file
	// pointers, so holders of world.RLock read them race-free.
	gen uint32

	// wal is the mutation log and ckptLog the checkpoint log; both nil
	// unless Options.WAL. Appends happen under t.mu (so LSN order equals
	// apply order); commits happen after t.mu is released.
	wal     *store.WAL
	ckptLog *store.WAL

	// reoptMu serializes incremental reoptimization steps; reopt holds
	// the in-flight run's state (guarded by t.mu for the fields writers
	// touch — see reopt.go).
	reoptMu sync.Mutex
	reopt   *reoptState

	dim        int
	fractalDim float64
}

// load pins the current snapshot (one atomic load).
func (t *Tree) load() *snapshot { return t.snap.Load() }

// publish installs sn as the current snapshot.
func (t *Tree) publish(sn *snapshot) { t.snap.Store(sn) }

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of live points.
func (t *Tree) Len() int { return t.load().n }

// NumPages returns the number of live quantized data pages.
func (t *Tree) NumPages() int { return t.load().livePages() }

// Options returns the tree's construction options.
func (t *Tree) Options() Options { return t.opt }

// FractalDim returns the fractal dimension used by the cost model.
func (t *Tree) FractalDim() float64 { return t.fractalDim }

// Model returns a copy of the tree's cost model.
func (t *Tree) Model() costmodel.Model { return t.load().model }

// qPageBytes returns the byte size of one quantized page.
func (t *Tree) qPageBytes() int { return t.opt.QPageBlocks * t.sto.Config().BlockSize }

// qPayloadBytes returns the payload capacity of one quantized page.
func (t *Tree) qPayloadBytes() int { return t.qPageBytes() - page.QHeaderSize }

// pageCapacity returns the number of points a quantized page holds at the
// given level. Capacities follow the exact halving ladder of the split
// tree — cap(g) = cap(32)·32/g — so that splitting a full page always
// yields two full pages at the doubled level (the physical bit capacity
// is slightly larger for g < 32; the difference is the id overhead of the
// exact level, ~d/(d+1)).
func (t *Tree) pageCapacity(bits int) int {
	cap32 := page.QPageCapacity(t.qPayloadBytes(), t.dim, quantize.ExactBits)
	return cap32 * quantize.ExactBits / bits
}

// fitBits returns the largest quantization level whose page capacity
// accommodates count points, or 0 if count does not even fit at 1 bit.
func (t *Tree) fitBits(count int) int {
	best := 0
	for _, b := range quantize.Levels {
		if t.pageCapacity(b) >= count {
			best = b
		}
	}
	return best
}

// Build constructs an IQ-tree over pts on the given store. Point i is
// assigned id i. The point slice is not retained.
func Build(sto *store.Store, pts []vec.Point, opt Options) (*Tree, error) {
	if len(pts) == 0 {
		return nil, errors.New("core: cannot build over an empty point set")
	}
	dim := len(pts[0])
	if dim == 0 {
		return nil, errors.New("core: zero-dimensional points")
	}
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	if opt.QPageBlocks <= 0 {
		opt.QPageBlocks = 1
	}
	t := &Tree{
		opt: opt,
		sto: sto,
		dim: dim,
	}
	var err error
	if t.metaFile, err = sto.NewFile(MetaFileName); err != nil {
		return nil, err
	}
	if t.dirFile, err = sto.NewFile(DirFileName); err != nil {
		return nil, err
	}
	if t.qFile, err = sto.NewFile(QFileName); err != nil {
		return nil, err
	}
	if t.eFile, err = sto.NewFile(EFileName); err != nil {
		return nil, err
	}
	sn := &snapshot{n: len(pts), dataSpace: vec.MBROf(pts)}

	df := opt.FractalDim
	if opt.UniformModel {
		df = float64(dim)
	} else if df <= 0 {
		df = fractal.Estimate(pts, opt.Metric)
	}
	t.fractalDim = df
	sn.model = costmodel.Model{
		Disk:          sto.Config(),
		Metric:        opt.Metric,
		Dim:           dim,
		N:             len(pts),
		FractalDim:    df,
		DataSpace:     sn.dataSpace,
		DirEntryBytes: page.DirEntrySize(dim),
		QPageBlocks:   opt.QPageBlocks,
		ExactBlocks:   1,
		RefineFactor:  opt.RefineCostFactor,
		K:             opt.KNNTarget,
	}

	if page.QPageCapacity(t.qPayloadBytes(), dim, quantize.ExactBits) < 1 {
		return nil, fmt.Errorf("core: quantized page too small for even one %d-dimensional point", dim)
	}

	b := newBuilder(t, sn, pts)
	b.run()
	if err := t.writeMeta(sn); err != nil {
		return nil, err
	}
	if err := sto.Err(); err != nil {
		return nil, fmt.Errorf("core: build: %w", err)
	}
	if opt.WAL {
		if t.wal, err = store.CreateWAL(sto.Backend(), WALFileName); err != nil {
			return nil, err
		}
		if t.ckptLog, err = store.CreateWAL(sto.Backend(), ckptLogName(0)); err != nil {
			return nil, err
		}
		// The initial checkpoint makes the fresh build durable and gives
		// recovery its base state.
		if err := t.checkpoint(sn); err != nil {
			return nil, err
		}
	}
	t.publish(sn)
	return t, nil
}

// Store returns the block store the tree lives on.
func (t *Tree) Store() *store.Store { return t.sto }

// CostEstimate returns the cost model's predicted time per nearest-
// neighbor query for the current page configuration (Eq. 23).
func (t *Tree) CostEstimate() float64 {
	sn := t.load()
	return sn.model.Total(sn.pageInfos())
}

// Stats summarizes the physical structure of the tree.
type Stats struct {
	Points         int
	Pages          int
	BitsHistogram  map[int]int // quantization level → page count
	DirectoryBytes int
	QuantizedBytes int
	ExactBytes     int
	FractalDim     float64
	PredictedCost  float64 // model-estimated seconds per NN query
}

// Stats returns structural statistics of the tree.
func (t *Tree) Stats() Stats {
	sn := t.load()
	st := Stats{
		Points:         sn.n,
		BitsHistogram:  make(map[int]int),
		DirectoryBytes: t.dirFile.Bytes(),
		QuantizedBytes: t.qFile.Bytes(),
		ExactBytes:     t.eFile.Bytes(),
		FractalDim:     t.fractalDim,
	}
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		st.Pages++
		st.BitsHistogram[int(e.Bits)]++
	}
	st.PredictedCost = sn.model.Total(sn.pageInfos())
	return st
}

// IndexStats implements index.Index with the common cross-method shape
// summary.
func (t *Tree) IndexStats() index.Stats {
	sn := t.load()
	return index.Stats{
		Method: "IQ-tree",
		Points: sn.n,
		Dim:    t.dim,
		Pages:  sn.livePages(),
		Bytes:  t.dirFile.Bytes() + t.qFile.Bytes() + t.eFile.Bytes(),
	}
}

// PageInfoRow describes one live quantized page for introspection.
type PageInfoRow struct {
	QPos   int
	Count  int
	Bits   int
	Volume float64
	MBR    vec.MBR
}

// DescribePages returns one row per live page, in directory order — the
// raw material behind Stats' bits histogram, used by cmd/iqtool and
// tests.
func (t *Tree) DescribePages() []PageInfoRow {
	sn := t.load()
	rows := make([]PageInfoRow, 0, len(sn.entries))
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		rows = append(rows, PageInfoRow{
			QPos:   int(e.QPos),
			Count:  int(e.Count),
			Bits:   int(e.Bits),
			Volume: e.MBR.Volume(),
			MBR:    e.MBR.Clone(),
		})
	}
	return rows
}
