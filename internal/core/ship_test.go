package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// Shipping a replica at the tree level: a store.Copy of a quiescent
// WAL-mode tree's files onto a fresh backend, opened through the normal
// recovery path, must give back the source — the same contract as
// kill-and-recover, with the crash image moved to another backend
// instead of reopened in place. Each test covers one source state.

// shipAndOpen copies the tree's backend onto a fresh simulated backend
// and recovers a tree from the copy.
func shipAndOpen(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	dst := store.NewSimStore(store.DefaultConfig())
	if err := store.Copy(dst, tr.sto.Backend()); err != nil {
		t.Fatalf("copy: %v", err)
	}
	rec, err := Open(store.Wrap(dst))
	if err != nil {
		t.Fatalf("open the copy: %v", err)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestShipCheckpointOnlyFreshReplica: a freshly checkpointed source has
// an empty mutation log, so its checkpoint is the whole state, and the
// copy opens to the source.
func TestShipCheckpointOnlyFreshReplica(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	base := randPoints(r, 400, 8)
	live := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live}, base, randPoints(r, 120, 8))
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if info, _, err := store.InspectWAL(live.sto.Backend(), WALFileName); err != nil || info.Records != 0 {
		t.Fatalf("checkpointed mutation log: %d records, err %v", info.Records, err)
	}

	assertTreesEqual(t, shipAndOpen(t, live), live, randPoints(r, 10, 8))
}

// TestShipTornLogTail: the source's mutation log ends in a torn frame,
// the trace of a writer that died mid-append and was never
// acknowledged. The copy carries the tear unchanged, and recovery on the
// copy truncates it exactly as it would on the source.
func TestShipTornLogTail(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	base := randPoints(r, 400, 8)
	live := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live}, base, randPoints(r, 120, 8))

	// A frame header whose CRC cannot match, on a fresh block: the head
	// of an append that never completed.
	backend := live.sto.Backend()
	torn := make([]byte, backend.Config().BlockSize)
	binary.LittleEndian.PutUint32(torn[0:], 64)
	binary.LittleEndian.PutUint32(torn[4:], 0xdeadbeef)
	if _, _, err := backend.Lookup(WALFileName).Append(torn); err != nil {
		t.Fatal(err)
	}
	info, recs, err := store.InspectWAL(backend, WALFileName)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || len(recs) == 0 {
		t.Fatalf("source log: torn=%v, %d records; want a torn tail after live records", info.Torn, len(recs))
	}

	assertTreesEqual(t, shipAndOpen(t, live), live, randPoints(r, 10, 8))
}

// TestShipAcrossGenerationSwap: the source reoptimizes (generation 0 →
// 1: new data files, a fresh checkpoint log, the mutation log reset) and
// keeps mutating. The copy must recover the same generation and state.
func TestShipAcrossGenerationSwap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	base := randPoints(r, 400, 8)
	live := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live}, base, randPoints(r, 120, 8))
	if err := live.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	if live.load().gen.n != 1 {
		t.Fatalf("expected generation 1 after reoptimize, got %d", live.load().gen.n)
	}
	// Post-swap mutations land in the reset mutation log.
	s := live.sto.NewSession()
	for i, p := range randPoints(r, 40, 8) {
		if err := live.Insert(s, p, uint32(300000+i)); err != nil {
			t.Fatal(err)
		}
	}

	rec := shipAndOpen(t, live)
	if rec.load().gen.n != 1 {
		t.Fatalf("copy recovered generation %d, want 1", rec.load().gen.n)
	}
	assertTreesEqual(t, rec, live, randPoints(r, 10, 8))
}
