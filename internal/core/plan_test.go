package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// backendFiles returns every file on sto's backend by name, logs and
// checksum sidecars included.
func backendFiles(t *testing.T, sto *store.Store) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, name := range sto.Backend().Names() {
		f := sto.Backend().Lookup(name)
		var data []byte
		if f.Blocks() > 0 {
			raw, err := f.ReadBlocks(0, f.Blocks())
			if err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			data = append(data, raw...)
		}
		files[name] = data
	}
	return files
}

// assertSameFiles fails unless got and want hold the same files with the
// same bytes.
func assertSameFiles(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	names := func(m map[string][]byte) []string {
		var out []string
		for name := range m {
			out = append(out, name)
		}
		slices.Sort(out)
		return out
	}
	if g, w := names(got), names(want); !slices.Equal(g, w) {
		t.Fatalf("%s: files %v, want %v", label, g, w)
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: %s differs from a Build on a fresh store", label, name)
		}
	}
}

// TestPlanBuild writes one plan onto several stores: every file must be
// byte-identical to a Build on a fresh store of the same kind, a store
// configured otherwise must be refused before it gets a file, and a
// write fault must fail only the store it hit.
func TestPlanBuild(t *testing.T) {
	cfg := store.DefaultConfig()
	kinds := []struct {
		name string
		new  func(t *testing.T) *store.Store
	}{
		{"sim", func(*testing.T) *store.Store { return store.NewSim(cfg) }},
		{"file", func(t *testing.T) *store.Store {
			sto, err := store.OpenFileStore(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sto.Close() })
			return sto
		}},
		{"checksummed", func(t *testing.T) *store.Store {
			sto := store.NewSim(cfg)
			if err := sto.EnableChecksums(); err != nil {
				t.Fatal(err)
			}
			return sto
		}},
	}
	inputs := []struct {
		name string
		pts  []vec.Point
	}{
		{"uniform", dataset.GenUniform(1, 20000, 16)},
		{"cad", dataset.GenCAD(2, 20000)},
	}
	for _, in := range inputs {
		for _, wal := range []bool{false, true} {
			opt := DefaultOptions()
			opt.WAL = wal
			t.Run(fmt.Sprintf("%s/wal=%v", in.name, wal), func(t *testing.T) {
				p, err := NewPlan(in.pts, opt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range kinds {
					sto, ref := k.new(t), k.new(t)
					if _, err := p.Build(sto); err != nil {
						t.Fatalf("%s: %v", k.name, err)
					}
					if _, err := Build(ref, in.pts, opt); err != nil {
						t.Fatalf("%s: %v", k.name, err)
					}
					assertSameFiles(t, k.name, backendFiles(t, sto), backendFiles(t, ref))
				}
			})
		}
	}

	pts := randPoints(rand.New(rand.NewSource(29)), 3000, 8)
	opt := DefaultOptions()
	opt.WAL = true
	p, err := NewPlan(pts, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := store.NewSim(cfg)
	if _, err := Build(ref, pts, opt); err != nil {
		t.Fatal(err)
	}

	t.Run("other config", func(t *testing.T) {
		big, slow := cfg, cfg
		big.BlockSize = 8192
		slow.Seek = 5e-3
		for _, c := range []struct {
			cfg  store.Config
			want string
		}{{big, "BlockSize:8192"}, {slow, "Seek:0.005"}} {
			sto := store.NewSim(c.cfg)
			_, err := p.Build(sto)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Build onto a store with %+v: err %v, want one naming %s", c.cfg, err, c.want)
			}
			if names := sto.Backend().Names(); len(names) > 0 {
				t.Fatalf("refused store got files %v", names)
			}
		}
	})

	t.Run("write fault", func(t *testing.T) {
		faulty := store.Wrap(store.NewFaultStore(store.NewSimStore(cfg), store.FaultConfig{WriteErr: 1}))
		if _, err := p.Build(faulty); err == nil {
			t.Fatal("Build onto a store whose every write fails succeeded")
		}
		clean := store.NewSim(cfg)
		if _, err := p.Build(clean); err != nil {
			t.Fatal(err)
		}
		assertSameFiles(t, "after a failed Build", backendFiles(t, clean), backendFiles(t, ref))
	})
}

// TestEncodePageAllocatesNothing holds the page encoder that Plan.Build's
// workers run to the buffers it is given: a compressed page with its
// exact page, and a 32-bit page, encode without an allocation.
func TestEncodePageAllocatesNothing(t *testing.T) {
	cfg := store.DefaultConfig()
	g := geometry{dim: 16, blockSize: cfg.BlockSize}
	pts := dataset.GenCAD(5, g.pageCapacity(8))
	ids := make([]uint32, len(pts))
	for i := range ids {
		ids[i] = uint32(i)
	}
	qbuf := make([]byte, g.qPageBytes())
	ebuf := make([]byte, cfg.Blocks(len(pts)*page.ExactEntrySize(g.dim))*cfg.BlockSize)
	for _, bits := range []int{8, quantize.ExactBits} {
		n := g.pageCapacity(bits)
		grid := quantize.NewGrid(vec.MBROf(pts[:n]), bits)
		if allocs := testing.AllocsPerRun(20, func() { encodePage(qbuf, ebuf, grid, pts[:n], ids[:n]) }); allocs != 0 {
			t.Errorf("%d-bit page: %v allocations per encoding, want 0", bits, allocs)
		}
	}
}

// TestWritePagesKeepsPositionsOnFailedAppend: the one page writer sets
// the entries' positions and the position index only once both of its
// appends have succeeded. A write on a healthy store places the pages
// at the ends of the files; from there, a torn exact append and a torn
// quantized append each return the error and leave every entry's QPos
// and EPos and the position index as they were.
func TestWritePagesKeepsPositionsOnFailedAppend(t *testing.T) {
	faults := store.NewFaultStore(store.NewSimStore(store.DefaultConfig()), store.FaultConfig{})
	tr, err := Build(store.Wrap(faults), randPoints(rand.New(rand.NewSource(35)), 1500, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	built := tr.load()
	n := len(built.entries)
	if n < 2 || len(compressedPages(tr)) < 2 {
		t.Fatalf("%d pages, %d with exact pages; want two of each", n, len(compressedPages(tr)))
	}
	var pts []vec.Point
	var ids []uint32
	var eblocks int
	for i := range built.entries {
		p, id, err := tr.readPagePoints(tr.sto.NewSession(), built, i)
		if err != nil {
			t.Fatal(err)
		}
		pts, ids = append(pts, p...), append(ids, id...)
		eblocks += int(built.entries[i].EBlocks)
	}
	// rewrite writes every page of from again, as one chunk, with the
	// given faults scheduled.
	rewrite := func(from *snapshot, fail map[int]store.FaultKind) (*snapshot, error) {
		sn := from.clone()
		for i, e := range sn.entries {
			tr.setPage(sn, i, int(e.Count), int(e.Bits), e.MBR)
		}
		faults.SetConfig(store.FaultConfig{Schedule: fail})
		defer faults.SetConfig(store.FaultConfig{})
		qbuf, ebuf := make([]byte, n*tr.blockSize), make([]byte, eblocks*tr.blockSize)
		return sn, tr.writePages(sn, 0, n, pts, ids, qbuf, ebuf)
	}

	qEnd, eEnd := tr.load().gen.q.Blocks(), tr.load().gen.e.Blocks()
	live, err := rewrite(built, nil)
	if err != nil {
		t.Fatal(err)
	}
	epos := eEnd
	for i, e := range live.entries {
		if int(e.QPos) != qEnd+i || live.entryIndex(qEnd+i) != i || (e.EBlocks > 0 && int(e.EPos) != epos) {
			t.Fatalf("entry %d written at QPos %d EPos %d, want %d %d", i, e.QPos, e.EPos, qEnd+i, epos)
		}
		epos += int(e.EBlocks)
	}
	for k, file := range []string{"exact", "quantized"} {
		sn, err := rewrite(live, map[int]store.FaultKind{faults.Ops() + k: store.FaultTorn})
		if err == nil || !strings.Contains(err.Error(), "torn append") {
			t.Fatalf("torn %s append: err %v", file, err)
		}
		for i, e := range sn.entries {
			if w := live.entries[i]; e.QPos != w.QPos || e.EPos != w.EPos {
				t.Fatalf("torn %s append moved entry %d to QPos %d EPos %d, was %d %d", file, i, e.QPos, e.EPos, w.QPos, w.EPos)
			}
		}
		if !slices.Equal(sn.entryAt, live.entryAt) {
			t.Fatalf("torn %s append changed the position index", file)
		}
	}
}
