package core

import (
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

func TestOpenReconstructsTree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 3000, 8)
	sto := store.NewSim(store.DefaultConfig())
	orig, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != orig.Len() || reopened.Dim() != orig.Dim() {
		t.Fatalf("metadata mismatch: %d/%d vs %d/%d",
			reopened.Len(), reopened.Dim(), orig.Len(), orig.Dim())
	}
	if reopened.NumPages() != orig.NumPages() {
		t.Fatalf("pages %d vs %d", reopened.NumPages(), orig.NumPages())
	}
	if reopened.FractalDim() != orig.FractalDim() {
		t.Fatalf("fractal dim %f vs %f", reopened.FractalDim(), orig.FractalDim())
	}

	queries := randPoints(r, 15, 8)
	for qi, q := range queries {
		a, err := orig.KNN(sto.NewSession(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reopened.KNN(sto.NewSession(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: result counts differ", qi)
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				t.Fatalf("query %d: %f vs %f", qi, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestOpenedTreeAcceptsUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 1000, 4)
	sto := store.NewSim(store.DefaultConfig())
	if _, err := Build(sto, pts, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	tr, err := Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	s := sto.NewSession()
	extra := randPoints(r, 300, 4)
	all := append(append([]vec.Point{}, pts...), extra...)
	for i, p := range extra {
		if err := tr.Insert(s, p, uint32(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	checkKNN(t, tr, all, randPoints(r, 8, 4), 3, vec.Euclidean)

	// Reopen once more after the updates and verify again.
	tr2, err := Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != len(all) {
		t.Fatalf("post-update reopen Len = %d, want %d", tr2.Len(), len(all))
	}
	checkKNN(t, tr2, all, randPoints(r, 8, 4), 3, vec.Euclidean)
}

func TestOpenWithDeletedPages(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 800, 3)
	sto := store.NewSim(store.DefaultConfig())
	tr, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sto.NewSession()
	var remaining []vec.Point
	for i, p := range pts {
		if i < 400 {
			if ok, err := tr.Delete(s, p, uint32(i)); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			} else if !ok {
				t.Fatalf("delete %d failed", i)
			}
		} else {
			remaining = append(remaining, p)
		}
	}
	tr2, err := Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != len(remaining) {
		t.Fatalf("Len %d, want %d", tr2.Len(), len(remaining))
	}
	for qi, q := range randPoints(r, 6, 3) {
		got, err := tr2.KNN(sto.NewSession(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(remaining, q, 2, vec.Euclidean)
		for i := range got {
			if diff := got[i].Dist - want[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("query %d: %f vs %f", qi, got[i].Dist, want[i])
			}
		}
	}
}

// TestFileStoreMutateAfterReopen is the durability round-trip of the
// bugfix sweep: build → close → reopen → insert → close → reopen →
// query, on real files, with a buffer pool attached in every phase so a
// stale cache or an unsynced write surfaces as a wrong query result.
func TestFileStoreMutateAfterReopen(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 1200, 6)
	extra := randPoints(r, 150, 6)
	all := append(append([]vec.Point{}, pts...), extra...)

	// Phase 1: build and close.
	sto, err := store.OpenFileStore(dir, store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sto.SetCache(1 << 20)
	if _, err := Build(sto, pts, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reopen, insert, close.
	sto, err = store.OpenFileStore(dir, store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sto.SetCache(1 << 20)
	tr, err := Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("reopened Len %d, want %d", tr.Len(), len(pts))
	}
	s := sto.NewSession()
	for i, p := range extra {
		if err := tr.Insert(s, p, uint32(len(pts)+i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: reopen and query; results must reflect the inserts.
	sto, err = store.OpenFileStore(dir, store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto.Close()
	sto.SetCache(1 << 20)
	tr, err = Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(all) {
		t.Fatalf("final Len %d, want %d", tr.Len(), len(all))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range randPoints(r, 10, 6) {
		got, err := tr.KNN(sto.NewSession(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(all, q, 3, vec.Euclidean)
		for i := range got {
			if diff := got[i].Dist - want[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("query %d rank %d: %f vs %f", qi, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestOpenErrors(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	if _, err := Open(sto); err == nil {
		t.Fatal("open on an empty disk should fail")
	}
	// Corrupt the magic.
	r := rand.New(rand.NewSource(4))
	tr, err := Build(sto, randPoints(r, 100, 2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	blk := make([]byte, sto.Config().BlockSize)
	if err := sto.Backend().Lookup(MetaFileName).WriteBlocks(0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(sto); err == nil {
		t.Fatal("corrupt magic should fail")
	}
}
