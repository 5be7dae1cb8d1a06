package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

func TestInvariantsAfterBuild(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 8, 16} {
		for _, quant := range []bool{true, false} {
			opt := DefaultOptions()
			opt.Quantize = quant
			tr := buildTree(t, randPoints(r, 3000, d), opt)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("d=%d quantize=%v: %v", d, quant, err)
			}
		}
	}
}

func TestInvariantsAfterHeavyUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 2000, 6)
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()

	nextID := uint32(len(pts))
	live := map[uint32]vec.Point{}
	for i, p := range pts {
		live[uint32(i)] = p
	}
	// Interleave inserts and deletes for several rounds.
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			p := randPoints(r, 1, 6)[0]
			if err := tr.Insert(s, p, nextID); err != nil {
				t.Fatal(err)
			}
			live[nextID] = p
			nextID++
		}
		removed := 0
		for id, p := range live {
			if removed >= 150 {
				break
			}
			if ok, err := tr.Delete(s, p, id); err != nil {
				t.Fatalf("round %d: delete id %d: %v", round, id, err)
			} else if !ok {
				t.Fatalf("round %d: delete id %d failed", round, id)
			}
			delete(live, id)
			removed++
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(live))
	}
}

func TestReoptimizeCompactsAndPreservesContents(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 3000, 8)
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()

	// Heavy churn: inserts grow the exact file with garbage regions.
	all := map[uint32]vec.Point{}
	for i, p := range pts {
		all[uint32(i)] = p
	}
	for i := 0; i < 1500; i++ {
		p := randPoints(r, 1, 8)[0]
		id := uint32(len(pts) + i)
		if err := tr.Insert(s, p, id); err != nil {
			t.Fatal(err)
		}
		all[id] = p
	}
	exactBefore := tr.load().gen.e.Bytes()
	costBefore := tr.CostEstimate()

	if err := tr.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reoptimize: %v", err)
	}
	if tr.Len() != len(all) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(all))
	}
	if tr.load().gen.e.Bytes() > exactBefore {
		t.Fatalf("reoptimize did not compact: %d -> %d bytes", exactBefore, tr.load().gen.e.Bytes())
	}
	if cost := tr.CostEstimate(); cost > costBefore*1.05 {
		t.Fatalf("reoptimize increased predicted cost: %f -> %f", costBefore, cost)
	}

	// Contents identical: ids and coordinates survive.
	gotPts, gotIDs, err := tr.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPts) != len(all) {
		t.Fatalf("AllPoints %d, want %d", len(gotPts), len(all))
	}
	for i, id := range gotIDs {
		want, ok := all[id]
		if !ok || !want.Equal(gotPts[i]) {
			t.Fatalf("id %d: content mismatch after reoptimize", id)
		}
	}

	// Queries still exact.
	var flat []vec.Point
	idByPos := map[int]uint32{}
	for id, p := range all {
		idByPos[len(flat)] = id
		flat = append(flat, p)
	}
	for qi, q := range randPoints(r, 10, 8) {
		got := mustKNN(t, tr, q, 3)
		want := bruteKNN(flat, q, 3, vec.Euclidean)
		for i := range got {
			if diff := got[i].Dist - want[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("query %d: %f vs %f", qi, got[i].Dist, want[i])
			}
		}
	}
}

func TestReoptimizeOnFreshTreeIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 2000, 10)
	tr := buildTree(t, pts, DefaultOptions())
	pagesBefore := tr.NumPages()
	if err := tr.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	// A fresh tree re-optimized should land on a similar configuration.
	if after := tr.NumPages(); after < pagesBefore/2 || after > pagesBefore*2 {
		t.Fatalf("reoptimize changed pages wildly: %d -> %d", pagesBefore, after)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReoptimizeEmptyTreeTypedError: reoptimizing a tree whose points
// have all been deleted reports the typed ErrEmptyTree (there is nothing
// to re-quantize), leaves the tree usable, and a later insert revives it.
func TestReoptimizeEmptyTreeTypedError(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	pts := randPoints(r, 500, 4)
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()
	for i, p := range pts {
		if ok, err := tr.Delete(s, p, uint32(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := tr.Reoptimize(); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("Reoptimize on emptied tree: %v, want ErrEmptyTree", err)
	}
	if tr.ReoptimizeRunning() {
		t.Fatal("aborted reoptimize left state behind")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(s, pts[0], 1); err != nil {
		t.Fatalf("insert after empty-tree reoptimize: %v", err)
	}
	if err := tr.Reoptimize(); err != nil {
		t.Fatalf("reoptimize after revival: %v", err)
	}
}

func TestInvariantsDetectCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr := buildTree(t, randPoints(r, 1000, 4), DefaultOptions())
	// Corrupt one quantized page header in place.
	bs := tr.sto.Config().BlockSize
	raw, err := tr.load().gen.q.ReadRaw(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, bs)
	copy(blk, raw)
	blk[0] ^= 0xff // clobber the count
	if err := tr.sto.Backend().Lookup(tr.load().gen.q.Name()).WriteBlocks(0, blk); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestOpenedTreePassesInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sto := store.NewSim(store.DefaultConfig())
	if _, err := Build(sto, randPoints(r, 1500, 6), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	tr, err := Open(sto)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 2000, 6)
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()

	// A batch large enough to overflow pages across multiple levels.
	extra := randPoints(r, 5000, 6)
	ids := make([]uint32, len(extra))
	for i := range ids {
		ids[i] = uint32(len(pts) + i)
	}
	if err := tr.InsertBatch(s, extra, ids); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(pts)+len(extra) {
		t.Fatalf("Len %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all := append(append([]vec.Point{}, pts...), extra...)
	checkKNN(t, tr, all, randPoints(r, 8, 6), 4, vec.Euclidean)
}

func TestInsertBatchValidation(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := buildTree(t, randPoints(r, 500, 3), DefaultOptions())
	s := tr.sto.NewSession()
	if err := tr.InsertBatch(s, randPoints(r, 2, 3), []uint32{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := tr.InsertBatch(s, []vec.Point{{1, 2}}, []uint32{1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}
