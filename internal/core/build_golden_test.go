package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/vec"
)

// TestBuildFilesGolden pins every byte a build writes: the SHA-256 of
// each file on the backend (meta, directory, quantized and exact files,
// their checksum sidecars, and with Options.WAL the mutation and
// checkpoint logs) over inputs that exercise every page kind, and the
// frames each pool list holds, most recent first, after a build through
// a pool attached before it. A change to how a build lays out, encodes,
// appends or caches pages shows up as a diff against the committed
// golden. Regenerate (only for an intended layout change) with
//
//	go test ./internal/core -run TestBuildFilesGolden -update-golden
func TestBuildFilesGolden(t *testing.T) {
	cfg := store.DefaultConfig()
	sim := func(*testing.T) *store.Store { return store.NewSim(cfg) }
	checkedFile := func(t *testing.T) *store.Store {
		sto, err := store.OpenFileStore(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sto.Close() })
		if err := sto.EnableChecksums(); err != nil {
			t.Fatal(err)
		}
		return sto
	}
	seven := randPoints(rand.New(rand.NewSource(33)), 7, 8)
	dups := make([]vec.Point, 20000)
	for i := range dups {
		dups[i] = seven[i%len(seven)]
	}
	cad := dataset.GenCAD(2, 20000)
	fixed, exact, wal := DefaultOptions(), DefaultOptions(), DefaultOptions()
	fixed.FixedBits = 4
	exact.Quantize = false
	wal.WAL = true

	// A tree of 32-bit pages holds cap32 points in each one-block page,
	// so cap32·pages points make exactly that many pages, and a chunk of
	// Plan.Build's page writer holds chunkPages of them.
	cap32 := geometry{dim: 16, blockSize: cfg.BlockSize}.pageCapacity(32)
	chunkPages := chunkBytes / cfg.BlockSize

	type buildCase struct {
		name  string
		sto   func(*testing.T) *store.Store
		pts   []vec.Point
		opt   Options
		pages int // when > 0, the page count the case exists for
	}
	cases := []buildCase{
		{"cad-file-checksums", checkedFile, cad, DefaultOptions(), 0},
		{"uniform-16d", sim, dataset.GenUniform(1, 20000, 16), DefaultOptions(), 0},
		{"weather-9d", sim, dataset.GenWeather(3, 20000), DefaultOptions(), 0},
		{"duplicates", sim, dups, DefaultOptions(), 0},
		{"fixed-bits-4", sim, cad, fixed, 0},
		{"no-quantize", sim, cad, exact, 0},
		{"wal", sim, cad, wal, 0},
	}
	for _, pages := range []int{chunkPages - 1, chunkPages, chunkPages + 1} {
		cases = append(cases, buildCase{fmt.Sprintf("pages=%d", pages), sim, dataset.GenUniform(4, cap32*pages, 16), exact, pages})
	}

	var b strings.Builder
	for _, c := range cases {
		sto := c.sto(t)
		tr, err := Build(sto, c.pts, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.pages > 0 && tr.NumPages() != c.pages {
			t.Fatalf("%s: %d pages, want %d", c.name, tr.NumPages(), c.pages)
		}
		writeFileDigests(t, &b, c.name, sto)
	}

	// A pool attached before the build, smaller than the exact file but
	// holding the directory and quantized files, keeps every upper-level
	// block and the exact blocks written last.
	ref := store.NewSim(cfg)
	if _, err := Build(ref, cad, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	eBlocks := ref.File(EFileName).Blocks()
	upper := ref.File(MetaFileName).Blocks() + ref.File(DirFileName).Blocks() + ref.File(QFileName).Blocks()
	budget := upper + eBlocks/2
	sto := store.NewSim(cfg)
	sto.SetCache(int64(budget * cfg.BlockSize))
	if _, err := Build(sto, cad, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	writeFileDigests(t, &b, "pooled", sto)
	ordinary, first := sto.Pool().Resident()
	fmt.Fprintf(&b, "pooled budget=%d blocks, exact file %d blocks\n", budget, eBlocks)
	fmt.Fprintf(&b, "pooled ordinary %s\n", blockRuns(ordinary))
	fmt.Fprintf(&b, "pooled evict-first %s\n", blockRuns(first))

	checkGolden(t, "build_files.golden", b.String())
}

// TestReoptimizeFilesGolden pins every byte the write path writes after
// a tree is built: copy-on-write page rewrites, splits and merges, the
// incremental reoptimizer's generations and their swaps. Each case
// takes 150 four-point batch inserts, each followed by a delete, under
// Options.AutoReoptimize with a 2 MiB pool attached before the build,
// then a Reoptimize. After the stream and again after the Reoptimize
// the golden holds the SHA-256 of every file, the generation reached
// and the frames each pool list keeps, most recent first. Regenerate
// (only for an intended layout change) with
//
//	go test ./internal/core -run TestReoptimizeFilesGolden -update-golden
func TestReoptimizeFilesGolden(t *testing.T) {
	wal := DefaultOptions()
	wal.WAL = true
	cases := []struct {
		name string
		pts  []vec.Point // the base points, then 600 to insert
		opt  Options
	}{
		{"cad-16d", dataset.GenCAD(5, 20600), DefaultOptions()},
		{"uniform-16d-wal", dataset.GenUniform(6, 20600, 16), wal},
		{"weather-9d", dataset.GenWeather(7, 8600), DefaultOptions()},
	}
	var b strings.Builder
	for _, c := range cases {
		base, extra := c.pts[:len(c.pts)-600], c.pts[len(c.pts)-600:]
		c.opt.AutoReoptimize = AutoReoptPolicy{GarbageRatio: 0.3}
		sto := store.NewSim(store.DefaultConfig())
		sto.SetCache(2 << 20)
		tr, err := Build(sto, base, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := sto.NewSession()
		for i := 0; i < 150; i++ {
			ids := []uint32{}
			for k := 4 * i; k < 4*i+4; k++ {
				ids = append(ids, uint32(1000000+k))
			}
			if err := tr.InsertBatch(s, extra[4*i:4*i+4], ids); err != nil {
				t.Fatalf("%s: insert %d: %v", c.name, i, err)
			}
			j := i * 97 % len(base)
			if found, err := tr.Delete(s, base[j], uint32(j)); err != nil || !found {
				t.Fatalf("%s: delete %d: found=%v err=%v", c.name, j, found, err)
			}
		}
		record := func(label string) {
			writeFileDigests(t, &b, label, sto)
			ordinary, first := sto.Pool().Resident()
			fmt.Fprintf(&b, "%s generation %d, %d pages, run in flight %v\n", label, tr.load().gen.n, tr.NumPages(), tr.ReoptimizeRunning())
			fmt.Fprintf(&b, "%s ordinary %s\n", label, blockRuns(ordinary))
			fmt.Fprintf(&b, "%s evict-first %s\n", label, blockRuns(first))
		}
		record(c.name + "/stream")
		if err := tr.Reoptimize(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		record(c.name + "/reoptimized")
	}
	checkGolden(t, "reopt_files.golden", b.String())
}

// writeFileDigests appends one line per backend file of sto, by name:
// its length in blocks and the SHA-256 of its bytes.
func writeFileDigests(t *testing.T, b *strings.Builder, label string, sto *store.Store) {
	t.Helper()
	files := backendFiles(t, sto)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		data := files[name]
		fmt.Fprintf(b, "%s %s %d %x\n", label, name, len(data)/sto.Config().BlockSize, sha256.Sum256(data))
	}
}

// blockRuns formats a pool list compactly: each maximal run of blocks of
// one file at consecutive descending (or ascending) positions becomes
// file[first..last].
func blockRuns(ids []store.BlockID) string {
	var parts []string
	for i := 0; i < len(ids); {
		j := i + 1
		step := 0
		if j < len(ids) && ids[j].File == ids[i].File {
			if d := ids[j].Pos - ids[i].Pos; d == 1 || d == -1 {
				step = d
			}
		}
		for step != 0 && j < len(ids) && ids[j].File == ids[i].File && ids[j].Pos-ids[j-1].Pos == step {
			j++
		}
		if j-i == 1 {
			parts = append(parts, fmt.Sprintf("%s[%d]", ids[i].File, ids[i].Pos))
		} else {
			parts = append(parts, fmt.Sprintf("%s[%d..%d]", ids[i].File, ids[i].Pos, ids[j-1].Pos))
		}
		i = j
	}
	return fmt.Sprintf("%d frames: %s", len(ids), strings.Join(parts, " "))
}
