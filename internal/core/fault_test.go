package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// buildCheckedTree builds a tree on a checksummed sim store (no cache,
// so every read verifies against the backend).
func buildCheckedTree(t *testing.T, seed int64, n, dim int, opt Options) (*store.Store, *Tree, []vec.Point) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := randPoints(r, n, dim)
	sto := store.NewSim(store.DefaultConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	tr, err := Build(sto, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sto, tr, pts
}

// flipQPageBit flips one bit of the quantized file's page at physical
// position qpos, directly on the backend — at-rest corruption beneath
// the checksum layer.
func flipQPageBit(t *testing.T, sto *store.Store, qpos int) {
	t.Helper()
	bf := sto.Backend().Lookup(QFileName)
	if bf == nil {
		t.Fatal("no quantized file")
	}
	data, err := bf.ReadBlocks(qpos, 1)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x10
	if err := bf.WriteBlocks(qpos, mut); err != nil {
		t.Fatal(err)
	}
}

// compressedPages returns the physical positions of live pages that
// have an exact (level-3) shadow, i.e. are not stored at 32 bits.
func compressedPages(tr *Tree) []int {
	var out []int
	for _, row := range tr.DescribePages() {
		if row.Bits != quantize.ExactBits {
			out = append(out, row.QPos)
		}
	}
	return out
}

// TestQuarantineFallbackKNN is the tentpole contract: after at-rest
// corruption of compressed quantized pages, KNN results are
// bit-identical to the clean run — the damaged pages are quarantined
// and answered from their exact shadow — and the degradation shows up
// in the trace and metrics.
func TestQuarantineFallbackKNN(t *testing.T) {
	sto, tr, _ := buildCheckedTree(t, 1, 2500, 8, DefaultOptions())
	r := rand.New(rand.NewSource(2))
	queries := randPoints(r, 20, 8)

	type answer struct {
		ids   []uint32
		dists []float64
	}
	clean := make([]answer, len(queries))
	for i, q := range queries {
		res, err := tr.KNN(sto.NewSession(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range res {
			clean[i].ids = append(clean[i].ids, nb.ID)
			clean[i].dists = append(clean[i].dists, nb.Dist)
		}
	}

	comp := compressedPages(tr)
	if len(comp) < 3 {
		t.Fatalf("only %d compressed pages; test needs at least 3", len(comp))
	}
	for _, qpos := range comp[:3] {
		flipQPageBit(t, sto, qpos)
	}

	degradedTotal := 0
	for i, q := range queries {
		trace := obs.NewQueryTrace("")
		res, err := tr.KNN(traced(sto, trace), q, 5)
		if err != nil {
			t.Fatalf("query %d after corruption: %v", i, err)
		}
		if len(res) != len(clean[i].ids) {
			t.Fatalf("query %d: %d results, clean run had %d", i, len(res), len(clean[i].ids))
		}
		for j, nb := range res {
			if nb.ID != clean[i].ids[j] || nb.Dist != clean[i].dists[j] {
				t.Fatalf("query %d rank %d: got (%d, %v), clean run (%d, %v) — degraded read was not exact",
					i, j, nb.ID, nb.Dist, clean[i].ids[j], clean[i].dists[j])
			}
		}
		degradedTotal += trace.DegradedReads
	}
	if degradedTotal == 0 {
		t.Fatal("no query paid a degraded read; corruption was not exercised")
	}
	if len(tr.QuarantinedPages()) == 0 {
		t.Fatal("corrupt pages were not quarantined")
	}
	if len(tr.DegradedEntries()) == 0 {
		t.Fatal("no live entries report as degraded")
	}
}

// TestQuarantineFallbackRangeWindow: the range and window scans take
// the same exact fallback, and answer in the clean run's order: a page
// quarantined before the query began is answered in its place among the
// pages read around it, like one that fails its checksum mid-query.
func TestQuarantineFallbackRangeWindow(t *testing.T) {
	sto, tr, _ := buildCheckedTree(t, 3, 1800, 6, DefaultOptions())
	r := rand.New(rand.NewSource(4))
	queries := randPoints(r, 10, 6)
	const eps = 0.5
	w := vec.MBR{
		Lo: vec.Point{0.2, 0.2, 0.2, 0.2, 0.2, 0.2},
		Hi: vec.Point{0.7, 0.7, 0.7, 0.7, 0.7, 0.7},
	}

	cleanRange := make([][]vec.Neighbor, len(queries))
	for i, q := range queries {
		res, err := tr.RangeSearch(sto.NewSession(), q, eps)
		if err != nil {
			t.Fatal(err)
		}
		cleanRange[i] = res
	}
	cleanWin, err := tr.WindowQuery(sto.NewSession(), w)
	if err != nil {
		t.Fatal(err)
	}

	comp := compressedPages(tr)
	if len(comp) < 2 {
		t.Fatalf("only %d compressed pages", len(comp))
	}
	flipQPageBit(t, sto, comp[0])
	flipQPageBit(t, sto, comp[len(comp)/2])

	for i, q := range queries {
		res, err := tr.RangeSearch(sto.NewSession(), q, eps)
		if err != nil {
			t.Fatalf("range %d after corruption: %v", i, err)
		}
		if !slices.EqualFunc(cleanRange[i], res, sameNeighbor) {
			t.Fatalf("range %d: degraded answer differs from the clean run's", i)
		}
	}
	// The range scans quarantined the damaged pages before the window
	// query began.
	win, err := tr.WindowQuery(sto.NewSession(), w)
	if err != nil {
		t.Fatalf("window after corruption: %v", err)
	}
	if !slices.EqualFunc(cleanWin, win, sameNeighbor) {
		t.Fatal("window: degraded answer differs from the clean run's")
	}
	if len(tr.QuarantinedPages()) == 0 {
		t.Fatal("range scans did not quarantine the damaged pages")
	}
}

// TestExactPageCorruptionIsTyped: a corrupt 32-bit (exact-mode) page
// has no level-3 shadow; queries touching it must fail with a typed
// error wrapping ErrUnrecoverable — never return silently wrong
// results.
func TestExactPageCorruptionIsTyped(t *testing.T) {
	opt := DefaultOptions()
	opt.Quantize = false // every page stores exact 32-bit data
	sto, tr, _ := buildCheckedTree(t, 5, 600, 4, opt)

	rows := tr.DescribePages()
	if rows[0].Bits != quantize.ExactBits {
		t.Fatalf("expected exact-mode pages, got %d bits", rows[0].Bits)
	}
	for _, row := range rows {
		flipQPageBit(t, sto, row.QPos)
	}
	r := rand.New(rand.NewSource(6))
	sawUnrecoverable := false
	for _, q := range randPoints(r, 10, 4) {
		_, err := tr.KNN(sto.NewSession(), q, 3)
		if err == nil {
			t.Fatal("KNN over fully corrupt exact-mode pages must fail")
		}
		if errors.Is(err, ErrUnrecoverable) {
			sawUnrecoverable = true
		}
	}
	if !sawUnrecoverable {
		t.Fatal("no query surfaced ErrUnrecoverable")
	}
	if _, err := tr.RangeSearch(sto.NewSession(), randPoints(r, 1, 4)[0], 0.8); err == nil {
		t.Fatal("range over corrupt exact-mode pages must fail")
	}
}

// TestRepairRewritesQuarantinedPages: Repair re-quantizes every
// quarantined page from its exact shadow; afterwards queries take the
// normal path again (no degraded reads) and results stay exact.
func TestRepairRewritesQuarantinedPages(t *testing.T) {
	sto, tr, pts := buildCheckedTree(t, 7, 2000, 6, DefaultOptions())
	r := rand.New(rand.NewSource(8))
	queries := randPoints(r, 10, 6)

	comp := compressedPages(tr)
	if len(comp) < 2 {
		t.Fatalf("only %d compressed pages", len(comp))
	}
	flipQPageBit(t, sto, comp[0])
	flipQPageBit(t, sto, comp[1])

	// Queries discover and quarantine the damage.
	checkKNN(t, tr, pts, queries, 4, vec.Euclidean)
	quarantined := len(tr.QuarantinedPages())
	if quarantined == 0 {
		t.Fatal("no pages quarantined")
	}

	repaired, err := tr.Repair(sto.NewSession())
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if repaired == 0 {
		t.Fatal("repair fixed nothing")
	}
	if got := tr.DegradedEntries(); len(got) != 0 {
		t.Fatalf("entries still degraded after repair: %v", got)
	}
	// Repaired pages serve without degraded reads.
	for i, q := range queries {
		trace := obs.NewQueryTrace("")
		if _, err := tr.KNN(traced(sto, trace), q, 4); err != nil {
			t.Fatalf("query %d after repair: %v", i, err)
		}
		if trace.DegradedReads != 0 {
			t.Fatalf("query %d still pays degraded reads after repair", i)
		}
	}
	checkKNN(t, tr, pts, queries, 4, vec.Euclidean)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Repair is idempotent over the healed tree.
	if n, err := tr.Repair(sto.NewSession()); err != nil || n != 0 {
		t.Fatalf("second repair: n=%d err=%v", n, err)
	}
}

// TestReoptimizeClearsQuarantine: compaction rewrites the files from
// scratch, so stale quarantine positions must not damn fresh pages.
func TestReoptimizeClearsQuarantine(t *testing.T) {
	opt := DefaultOptions()
	opt.FixedBits = 8 // force compressed pages regardless of the optimizer
	sto, tr, pts := buildCheckedTree(t, 9, 1200, 4, opt)
	comp := compressedPages(tr)
	if len(comp) == 0 {
		t.Fatal("no compressed pages despite FixedBits")
	}
	flipQPageBit(t, sto, comp[0])
	r := rand.New(rand.NewSource(10))
	queries := randPoints(r, 6, 4)
	checkKNN(t, tr, pts, queries, 3, vec.Euclidean) // quarantines
	if len(tr.QuarantinedPages()) == 0 {
		t.Fatal("no pages quarantined before reoptimize")
	}
	if err := tr.Reoptimize(); err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if len(tr.QuarantinedPages()) != 0 {
		t.Fatal("reoptimize left stale quarantine entries")
	}
	for i, q := range queries {
		trace := obs.NewQueryTrace("")
		if _, err := tr.KNN(traced(sto, trace), q, 3); err != nil {
			t.Fatalf("query %d after reoptimize: %v", i, err)
		}
		if trace.DegradedReads != 0 {
			t.Fatalf("query %d degraded on a freshly compacted tree", i)
		}
	}
	checkKNN(t, tr, pts, queries, 3, vec.Euclidean)
}

// FuzzBitFlipKNN is the no-silent-corruption contract under fuzzing: a
// single bit flip anywhere in the on-disk files must never change a
// KNN answer. Either the damage is invisible to the query (unused
// block, in-memory state), absorbed exactly by the quarantine
// fallback, or the query fails with a typed corruption error.
func FuzzBitFlipKNN(f *testing.F) {
	files := []string{MetaFileName, DirFileName, QFileName, EFileName}
	f.Add(uint8(0), uint16(0), uint8(0))   // meta, first block, first bit
	f.Add(uint8(1), uint16(1), uint8(7))   // directory
	f.Add(uint8(2), uint16(0), uint8(3))   // quantized page
	f.Add(uint8(2), uint16(5), uint8(200)) // deeper quantized page
	f.Add(uint8(3), uint16(2), uint8(64))  // exact page
	f.Add(uint8(3), uint16(9), uint8(255)) // exact page, high bit index
	f.Fuzz(func(t *testing.T, fileSel uint8, block uint16, bit uint8) {
		opt := DefaultOptions()
		opt.FractalDim = 4 // skip estimation: keep per-case builds cheap
		opt.FixedBits = 8  // compressed pages + exact shadows: both files populated
		r := rand.New(rand.NewSource(21))
		pts := randPoints(r, 300, 4)
		sto := store.NewSim(store.DefaultConfig())
		if err := sto.EnableChecksums(); err != nil {
			t.Fatal(err)
		}
		tr, err := Build(sto, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		queries := randPoints(r, 4, 4)
		type answer struct {
			ids   []uint32
			dists []float64
		}
		clean := make([]answer, len(queries))
		for i, q := range queries {
			res, err := tr.KNN(sto.NewSession(), q, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range res {
				clean[i].ids = append(clean[i].ids, nb.ID)
				clean[i].dists = append(clean[i].dists, nb.Dist)
			}
		}

		bf := sto.Backend().Lookup(files[int(fileSel)%len(files)])
		if bf == nil || bf.Blocks() == 0 {
			t.Skip("file empty at this configuration")
		}
		pos := int(block) % bf.Blocks()
		data, err := bf.ReadBlocks(pos, 1)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), data...)
		b := int(bit) % (len(mut) * 8)
		mut[b/8] ^= 1 << (b % 8)
		if err := bf.WriteBlocks(pos, mut); err != nil {
			t.Fatal(err)
		}

		for i, q := range queries {
			res, err := tr.KNN(sto.NewSession(), q, 3)
			if err != nil {
				var cbe *store.CorruptBlockError
				if !errors.As(err, &cbe) && !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("query %d: untyped failure after bit flip: %v", i, err)
				}
				continue
			}
			if len(res) != len(clean[i].ids) {
				t.Fatalf("query %d: %d results after flip, clean run had %d", i, len(res), len(clean[i].ids))
			}
			for j, nb := range res {
				if nb.ID != clean[i].ids[j] || nb.Dist != clean[i].dists[j] {
					t.Fatalf("query %d rank %d: (%d, %v) after flip, clean (%d, %v) — silent corruption",
						i, j, nb.ID, nb.Dist, clean[i].ids[j], clean[i].dists[j])
				}
			}
		}

		// The approximate path owes the same contract. ε = 0 (MinRecall 1)
		// must stay bit-identical to the clean exact run or fail typed;
		// ε > 0 may substitute neighbors but must only ever surface genuine
		// points at true distances — or fail typed — never corrupt data.
		met := tr.Options().Metric
		for i, q := range queries {
			res, err := tr.KNNApprox(sto.NewSession(), q, 3, 1)
			if err != nil {
				var cbe *store.CorruptBlockError
				if !errors.As(err, &cbe) && !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("approx ε=0 query %d: untyped failure after bit flip: %v", i, err)
				}
				continue
			}
			if len(res) != len(clean[i].ids) {
				t.Fatalf("approx ε=0 query %d: %d results after flip, clean run had %d", i, len(res), len(clean[i].ids))
			}
			for j, nb := range res {
				if nb.ID != clean[i].ids[j] || nb.Dist != clean[i].dists[j] {
					t.Fatalf("approx ε=0 query %d rank %d: (%d, %v) after flip, clean (%d, %v) — silent corruption",
						i, j, nb.ID, nb.Dist, clean[i].ids[j], clean[i].dists[j])
				}
			}
		}
		for i, q := range queries {
			res, err := tr.KNNApprox(sto.NewSession(), q, 3, 0.8)
			if err != nil {
				var cbe *store.CorruptBlockError
				if !errors.As(err, &cbe) && !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("approx ε>0 query %d: untyped failure after bit flip: %v", i, err)
				}
				continue
			}
			for j, nb := range res {
				if int(nb.ID) >= len(pts) {
					t.Fatalf("approx ε>0 query %d rank %d: fabricated ID %d", i, j, nb.ID)
				}
				if td := met.Dist(q, pts[nb.ID]); math.Abs(nb.Dist-td) > 1e-5 {
					t.Fatalf("approx ε>0 query %d rank %d: ID %d at %v, true distance %v — corrupt data surfaced",
						i, j, nb.ID, nb.Dist, td)
				}
			}
		}
	})
}

// TestTornWriteCrashRecovery extends the durability round-trip with a
// simulated crash: a FaultStore tears a page rewrite mid-insert, the
// process "dies" (the poisoned store is abandoned without a clean
// shutdown), and a fresh process reopens the directory. The checksum
// scrub must localize the damage and queries must still answer exactly
// (the torn blocks are beyond the last published directory, with live
// damage absorbed by the quarantine fallback).
func TestTornWriteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := store.DefaultConfig()
	r := rand.New(rand.NewSource(11))
	pts := randPoints(r, 1500, 6)

	// Phase 1: build a checksummed store on real files, through a
	// FaultStore that is quiet during the build.
	inner, err := store.OpenFileBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := store.NewFaultStore(inner, store.FaultConfig{})
	sto := store.Wrap(faults)
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	tr, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: tear the multi-block writes of the next insert (the
	// exact-page rewrite, the directory rewrite, or a sidecar persist)
	// and crash. Single-block writes pass through intact, so this
	// models a power cut that lands mid-way through a page rewrite.
	sched := make(map[int]store.FaultKind)
	for op := faults.Ops(); op < faults.Ops()+64; op++ {
		sched[op] = store.FaultTorn
	}
	faults.SetConfig(store.FaultConfig{Schedule: sched})
	ins := randPoints(r, 1, 6)[0]
	insertErr := tr.Insert(sto.NewSession(), ins, 99999)
	if insertErr == nil && sto.Err() == nil {
		t.Fatal("scheduled torn writes never fired")
	}
	faults.SetConfig(store.FaultConfig{})
	if err := inner.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the store without Close.

	// Phase 3: a fresh process reopens the directory.
	sto2, err := store.OpenFileStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sto2.Close()
	if err := sto2.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	rep, err := sto2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	// The scrub localizes whatever the torn write left behind; the
	// damage must not have spread to the whole store.
	if len(rep.Corrupt) >= rep.BlocksChecked/2 {
		t.Fatalf("scrub reports %d of %d blocks corrupt — damage not localized",
			len(rep.Corrupt), rep.BlocksChecked)
	}

	tr2, err := Open(sto2)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	// Crash semantics: the torn insert is either fully invisible or —
	// if the directory rewrite landed before the tear — visible. Both
	// are consistent states; anything else is corruption.
	expected := pts
	switch tr2.Len() {
	case len(pts):
	case len(pts) + 1:
		expected = append(append([]vec.Point(nil), pts...), ins)
	default:
		t.Fatalf("reopened Len %d, want %d or %d", tr2.Len(), len(pts), len(pts)+1)
	}

	// Every query either answers exactly (intact pages directly,
	// damaged quantized pages via the quarantine fallback) or fails
	// with a typed corruption error — never silently wrong.
	succeeded := 0
	for i, q := range randPoints(r, 10, 6) {
		res, err := tr2.KNN(sto2.NewSession(), q, 4)
		if err != nil {
			var cbe *store.CorruptBlockError
			if !errors.As(err, &cbe) && !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("query %d: untyped failure after crash: %v", i, err)
			}
			continue
		}
		want := bruteKNN(expected, q, 4, vec.Euclidean)
		for j, nb := range res {
			if nb.Dist != want[j] {
				t.Fatalf("query %d rank %d: dist %v, brute force %v — silent corruption", i, j, nb.Dist, want[j])
			}
		}
		succeeded++
	}
	if succeeded == 0 {
		t.Fatal("every query failed; the damage was not localized")
	}
}
