// Command iqtool builds an IQ-tree over a generated (or binary) data set,
// prints its physical structure, and runs queries against it, reporting
// the simulated cost of each.
//
// Usage:
//
//	iqtool -dataset color -n 50000 -stats
//	iqtool -dataset uniform -d 16 -n 100000 -knn 10 -queries 5
//	iqtool -in points.bin -range 0.2 -queries 3
//	iqtool -dataset weather -n 50000 -compare   # vs X-tree/VA-file/scan
//
// With -store file the index lives in real files under -dir, so a tree
// built in one process can be reopened and queried in another:
//
//	iqtool -store file -dir /tmp/iq -dataset color -n 50000 -stats
//	iqtool -store file -dir /tmp/iq -open -queries 5 -knn 3
//
// -checksum guards every block with a CRC32C sidecar, verified on every
// uncached read; with -verify it also scrubs the whole store and fails
// on any corrupt block:
//
//	iqtool -store file -dir /tmp/iq -checksum -dataset color -n 50000 -stats
//	iqtool -store file -dir /tmp/iq -open -checksum -verify -stats
//
// A tree built with -durable keeps a write-ahead log: every update is
// logged and committed (fsynced) before it is acknowledged, and a crashed
// process recovers by replay on the next open. -wal inspects the log
// (record count, LSN range, torn tail); -wal-replay forces recovery and
// compaction:
//
//	iqtool -store file -dir /tmp/iq -durable -dataset color -n 50000 -stats
//	iqtool -dir /tmp/iq -wal
//	iqtool -dir /tmp/iq -wal -wal-replay
//
// -shard-status demos the self-healing shard layer in-process: a small
// replicated fleet takes writes, one replica is killed, and the tool
// prints every replica lifecycle transition (state, and lag in missed
// write batches) until the repairer has rebuilt it from a sibling:
//
//	iqtool -shard-status -n 8000
//
// -cache attaches a shared LRU buffer pool (in bytes); cached blocks
// cost no simulated I/O, and -explain reports the pool's hit rate.
// -trace prints the full per-query plan: a per-level cost table
// (directory/quantized/exact seeks, transfers and CPU), the page
// scheduler's batch decisions, and the candidate/refinement funnel.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "iqtool: %v\n", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		name     = flag.String("dataset", "uniform", "uniform | cad | color | weather")
		in       = flag.String("in", "", "binary input file from datagen (overrides -dataset)")
		n        = flag.Int("n", 50000, "number of points")
		d        = flag.Int("d", 16, "dimensionality (uniform only)")
		seed     = flag.Int64("seed", 42, "generator seed")
		queries  = flag.Int("queries", 5, "number of held-out query points")
		knn      = flag.Int("knn", 1, "k for k-nearest-neighbor queries")
		rng      = flag.Float64("range", 0, "if > 0, run range queries with this radius instead of k-NN")
		minRec   = flag.Float64("min-recall", 0, "approximate k-NN: target expected recall in (0,1]; 0 or 1 = exact")
		statsFlg = flag.Bool("stats", false, "print tree structure statistics only")
		pagesFlg = flag.Bool("pages", false, "with -stats: also dump one line per quantized page")
		verify   = flag.Bool("verify", false, "run the full structural invariant check after building")
		explain  = flag.Bool("explain", false, "per query: print the T1st/T2nd/T3rd cost decomposition and physical work")
		traceFlg = flag.Bool("trace", false, "per query: print the full trace (per-level cost table, batches, funnel)")
		compare  = flag.Bool("compare", false, "also run X-tree, VA-file and scan on the same queries")
		maxMet   = flag.Bool("lmax", false, "use the maximum metric instead of Euclidean")
		backend  = flag.String("store", "sim", "block store backend: sim | file")
		dir      = flag.String("dir", "", "directory for -store file")
		open     = flag.Bool("open", false, "open the existing tree in -dir instead of building (implies -store file)")
		cache    = flag.Int64("cache", 0, "buffer-pool cache budget in bytes (0 = no cache)")
		checksum = flag.Bool("checksum", false, "guard every block with a CRC32C checksum (with -verify: also scrub)")
		durable  = flag.Bool("durable", false, "build in WAL mode: updates are logged and committed before acknowledgement")
		walFlg   = flag.Bool("wal", false, "inspect the write-ahead and checkpoint logs in -dir (implies -store file)")
		walRepl  = flag.Bool("wal-replay", false, "with -wal: force recovery — replay the log, truncate torn tails, checkpoint and compact")
		shardSt  = flag.Bool("shard-status", false, "demo the self-healing replica lifecycle: build a small fleet, kill a replica, print per-replica state and missed write batches until it heals")
	)
	flag.Parse()

	if *shardSt {
		return runShardStatus(dataset.Name(*name), *seed, *n, *d)
	}

	if *walFlg {
		*backend = "file"
	}
	if *open {
		*backend = "file"
		if *compare {
			return fmt.Errorf("-compare requires building (omit -open)")
		}
	}
	var sto *store.Store
	switch *backend {
	case "sim":
		sto = store.NewSim(store.DefaultConfig())
	case "file":
		if *dir == "" {
			return fmt.Errorf("-store file requires -dir")
		}
		if sto, err = store.OpenFileStore(*dir, store.DefaultConfig()); err != nil {
			return err
		}
		// A failed close/sync means the on-disk index may be stale;
		// surface it instead of silently exiting 0.
		defer func() {
			if cerr := sto.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close store: %w", cerr)
			}
		}()
	default:
		return fmt.Errorf("unknown -store %q (want sim or file)", *backend)
	}
	if *checksum {
		if err := sto.EnableChecksums(); err != nil {
			return fmt.Errorf("enable checksums: %w", err)
		}
	}
	if *cache > 0 {
		sto.SetCache(*cache)
	}
	if *walFlg {
		return runWAL(sto, *walRepl)
	}

	opt := core.DefaultOptions()
	opt.WAL = *durable
	if *maxMet {
		opt.Metric = vec.Maximum
	}

	var tree *core.Tree
	var db, qs []vec.Point
	if *open {
		if tree, err = core.Open(sto); err != nil {
			return fmt.Errorf("open tree in %s: %w", *dir, err)
		}
		// The database stays on disk; regenerate the same held-out query
		// workload the build run used (same -dataset/-n/-seed/-queries).
		qpts, err := dataset.Generate(dataset.Name(*name), *seed, *n+*queries, *d)
		if err != nil {
			return err
		}
		_, qs = dataset.Split(qpts, *queries)
	} else {
		var pts []vec.Point
		if *in != "" {
			pts, err = readBin(*in)
		} else {
			pts, err = dataset.Generate(dataset.Name(*name), *seed, *n+*queries, *d)
		}
		if err != nil {
			return err
		}
		db, qs = dataset.Split(pts, *queries)
		if tree, err = core.Build(sto, db, opt); err != nil {
			return err
		}
		if err := sto.Sync(); err != nil {
			return err
		}
	}

	st := tree.Stats()
	fmt.Printf("IQ-tree: %d points, %d pages, D_F=%.2f\n", st.Points, st.Pages, st.FractalDim)
	fmt.Printf("  bits histogram: %v\n", sortedHistogram(st.BitsHistogram))
	fmt.Printf("  directory %s, quantized %s, exact %s\n",
		size(st.DirectoryBytes), size(st.QuantizedBytes), size(st.ExactBytes))
	fmt.Printf("  model-predicted NN query cost: %.4fs\n", st.PredictedCost)
	if *verify {
		if err := tree.CheckInvariants(); err != nil {
			return fmt.Errorf("invariant check FAILED: %w", err)
		}
		fmt.Println("  structural invariants: OK")
		if *checksum {
			rep, err := sto.Scrub()
			if err != nil {
				return fmt.Errorf("checksum scrub: %w", err)
			}
			if len(rep.Corrupt) > 0 {
				for _, c := range rep.Corrupt {
					fmt.Printf("  CORRUPT: %s block %d\n", c.File, c.Block)
				}
				return fmt.Errorf("checksum scrub FAILED: %d of %d blocks corrupt", len(rep.Corrupt), rep.BlocksChecked)
			}
			fmt.Printf("  checksum scrub: OK (%d blocks verified)\n", rep.BlocksChecked)
		}
	}
	if *statsFlg {
		if *pagesFlg {
			fmt.Println("  pages (pos count bits volume):")
			for _, row := range tree.DescribePages() {
				fmt.Printf("    %6d %6d %3d %.3e\n", row.QPos, row.Count, row.Bits, row.Volume)
			}
		}
		return nil
	}

	var others []competitor
	if *compare {
		xd := store.NewSim(store.DefaultConfig())
		vd := store.NewSim(store.DefaultConfig())
		sd := store.NewSim(store.DefaultConfig())
		xt, err := xtree.Build(xd, db, xtree.DefaultOptions())
		if err != nil {
			return err
		}
		va, err := vafile.Build(vd, db, vafile.DefaultOptions())
		if err != nil {
			return err
		}
		sc, err := scan.Build(sd, db, opt.Metric)
		if err != nil {
			return err
		}
		others = []competitor{
			{"X-tree", xd, xt},
			{"VA-file", vd, va},
			{"Scan", sd, sc},
		}
	}

	var iqTotal float64
	totals := make([]float64, len(others))
	for qi, q := range qs {
		s := sto.NewSession()
		var trace core.Trace
		s.SetTrace(&trace)
		if *rng > 0 {
			res, err := tree.RangeSearch(s, q, *rng)
			if err != nil {
				return err
			}
			fmt.Printf("query %d: %d results in range %.3f  (%.4fs simulated, %v)\n",
				qi, len(res), *rng, s.Time(), s.Stats)
		} else {
			var res []core.Neighbor
			var err error
			if *minRec > 0 {
				res, err = tree.KNNApprox(s, q, *knn, *minRec)
			} else {
				res, err = tree.KNN(s, q, *knn)
			}
			if err != nil {
				return err
			}
			fmt.Printf("query %d (%.4fs simulated, %v):\n", qi, s.Time(), s.Stats)
			for i, nb := range res {
				fmt.Printf("   %2d. id=%-8d dist=%.5f\n", i+1, nb.ID, nb.Dist)
			}
			if *explain {
				cfg := sto.Config()
				t1 := levelStats(&trace, core.DirFileName)
				t2 := levelStats(&trace, core.QFileName)
				t3 := levelStats(&trace, core.EFileName)
				fmt.Printf("   T1st directory: %.4fs (%v)\n", t1.Time(cfg), t1)
				fmt.Printf("   T2nd quantized: %.4fs (%v); %d pages in %d batches\n",
					t2.Time(cfg), t2, trace.PagesRead, len(trace.Batches))
				fmt.Printf("   T3rd exact:     %.4fs (%v); %d exact-page refinements\n",
					t3.Time(cfg), t3, trace.Refinements)
				fmt.Printf("   CPU:            %.4fs\n", s.Stats.CPUSeconds)
				if p := sto.Pool(); p != nil {
					fmt.Printf("   buffer pool:    %v\n", p.Stats())
				}
			}
		}
		if *traceFlg {
			fmt.Print(trace.Format())
		}
		if err := s.Err(); err != nil {
			return fmt.Errorf("query %d left a poisoned session: %w", qi, err)
		}
		iqTotal += s.Time()
		for ci, c := range others {
			cs := c.sto.NewSession()
			var err error
			if *rng > 0 {
				_, err = c.idx.(interface {
					RangeSearch(*store.Session, vec.Point, float64) ([]vec.Neighbor, error)
				}).RangeSearch(cs, q, *rng)
			} else {
				_, err = c.idx.KNN(cs, q, *knn)
			}
			if err != nil {
				return err
			}
			if err := cs.Err(); err != nil {
				return fmt.Errorf("%s query %d left a poisoned session: %w", c.name, qi, err)
			}
			totals[ci] += cs.Time()
		}
	}
	nq := float64(len(qs))
	fmt.Printf("\naverage simulated seconds/query: IQ-tree %.4f\n", iqTotal/nq)
	for ci, c := range others {
		fmt.Printf("%33s %.4f  (%.1fx)\n", c.name, totals[ci]/nq, totals[ci]/math.Max(iqTotal, 1e-12))
	}
	return nil
}

type searcher interface {
	KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error)
}

type competitor struct {
	name string
	sto  *store.Store
	idx  searcher
}

// levelStats returns the charges the trace recorded against one file,
// the paper's T1st/T2nd/T3rd component of that level.
func levelStats(tr *core.Trace, file string) store.Stats {
	for _, l := range tr.Levels {
		if l.File == file {
			return store.Stats{Seeks: l.Seeks, BlocksRead: l.Blocks, Reads: l.Reads, CPUSeconds: l.CPUSeconds}
		}
	}
	return store.Stats{}
}

func sortedHistogram(h map[int]int) string {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d-bit: %d pages", k, h[k])
	}
	return out
}

func size(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func readBin(path string) ([]vec.Point, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("truncated header")
	}
	le := binary.LittleEndian
	n := int(le.Uint32(data[0:]))
	d := int(le.Uint32(data[4:]))
	if len(data) < 8+4*n*d {
		return nil, fmt.Errorf("truncated payload: want %d points x %d dims", n, d)
	}
	pts := make([]vec.Point, n)
	off := 8
	for i := range pts {
		p := make(vec.Point, d)
		for j := 0; j < d; j++ {
			p[j] = math.Float32frombits(le.Uint32(data[off:]))
			off += 4
		}
		pts[i] = p
	}
	return pts, nil
}
