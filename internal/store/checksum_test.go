package store

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// corrupt flips one bit of the named file's block pos directly on the
// backend, below the checksum layer — at-rest damage the sidecar knows
// nothing about.
func corrupt(t *testing.T, sto *Store, name string, pos int, bit int) {
	t.Helper()
	bf := sto.Backend().Lookup(name)
	if bf == nil {
		t.Fatalf("no backend file %s", name)
	}
	data, err := bf.ReadBlocks(pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[bit/8] ^= 1 << (bit % 8)
	if err := bf.WriteBlocks(pos, mut); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumCatchesBitFlip(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{0x5A}, 200))

	// Clean read passes verification.
	if _, err := sto.NewSession().Read(f, 0, 4); err != nil {
		t.Fatal(err)
	}

	corrupt(t, sto, "data", 2, 13)
	_, err := sto.NewSession().Read(f, 0, 4)
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("flipped bit not caught: %v", err)
	}
	if cbe.File != "data" || cbe.Block != 2 || cbe.Unverifiable {
		t.Fatalf("wrong corruption location: %+v", cbe)
	}
	// Undamaged blocks still read fine.
	if _, err := sto.NewSession().Read(f, 0, 2); err != nil {
		t.Fatalf("undamaged blocks should verify: %v", err)
	}
}

// TestChecksumVerifiesBeforeCaching: a corrupt block must never be
// inserted into the buffer pool — a later read may not silently hit a
// poisoned frame.
func TestChecksumVerifiesBeforeCaching(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	sto.SetCache(1 << 20)
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{1}, 64))
	corrupt(t, sto, "data", 0, 0)
	if _, err := sto.NewSession().Read(f, 0, 1); err == nil {
		t.Fatal("corrupt read should fail")
	}
	// The failed read must not have populated the pool: the next read
	// must fail again, not serve stale corrupt bytes as a cache hit.
	s := sto.NewSession()
	if _, err := s.Read(f, 0, 1); err == nil {
		t.Fatal("corrupt block was cached by the failed read")
	}
}

// TestChecksumWriteThrough: every mutation path keeps the sums current.
func TestChecksumWriteThrough(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{1}, 130))
	if _, err := sto.NewSession().Read(f, 0, 3); err != nil {
		t.Fatalf("after Append: %v", err)
	}
	if err := f.SetContents(bytes.Repeat([]byte{3}, 65)); err != nil {
		t.Fatal(err)
	}
	if _, err := sto.NewSession().Read(f, 0, 2); err != nil {
		t.Fatalf("after SetContents: %v", err)
	}
}

// TestChecksumLegacyAdoption: enabling checksums on a store with
// existing un-summed files computes sums from current content, and the
// sidecars persist across a file-backend reopen.
func TestChecksumLegacyAdoption(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	sto, err := OpenFileStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, 200)
	mustAppend(t, mustFile(t, sto, "legacy"), payload)
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the legacy store with checksums: content is adopted as-is.
	sto2, err := OpenFileStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sto2.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := sto2.File("legacy")
	got, err := sto2.NewSession().Read(f, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:200], payload) {
		t.Fatal("adopted content mismatch")
	}
	if err := sto2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third open: the persisted sidecar is loaded (not recomputed), so
	// damage inflicted while the store was down is caught.
	if sto3, err := OpenFileStore(dir, cfg); err != nil {
		t.Fatal(err)
	} else {
		if err := sto3.EnableChecksums(); err != nil {
			t.Fatal(err)
		}
		corrupt(t, sto3, "legacy", 1, 7)
		_, err := sto3.NewSession().Read(sto3.File("legacy"), 0, 4)
		var cbe *CorruptBlockError
		if !errors.As(err, &cbe) || cbe.Block != 1 {
			t.Fatalf("offline damage not caught from persisted sidecar: %v", err)
		}
		sto3.Close()
	}
}

// TestScrubLocalizesDamage: the scrub reports exactly the damaged
// blocks, file by file.
func TestScrubLocalizesDamage(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	a := mustFile(t, sto, "a")
	b := mustFile(t, sto, "b")
	mustAppend(t, a, bytes.Repeat([]byte{1}, 64*4))
	mustAppend(t, b, bytes.Repeat([]byte{2}, 64*3))

	rep, err := sto.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksChecked != 7 || len(rep.Corrupt) != 0 {
		t.Fatalf("clean scrub: %+v", rep)
	}

	corrupt(t, sto, "a", 3, 100)
	corrupt(t, sto, "b", 0, 5)
	rep, err = sto.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	want := []CorruptBlock{{File: "a", Block: 3}, {File: "b", Block: 0}}
	if len(rep.Corrupt) != 2 || rep.Corrupt[0] != want[0] || rep.Corrupt[1] != want[1] {
		t.Fatalf("scrub localization: got %+v, want %+v", rep.Corrupt, want)
	}
}

// TestChecksumUnverifiableTail: data blocks beyond the recorded sums
// (the crash window between data write and sidecar write) read back as
// Unverifiable, never as trusted.
func TestChecksumUnverifiableTail(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "data")
	mustAppend(t, f, make([]byte, 64))
	// Grow the data file below the File layer: no sums get recorded.
	if _, _, err := sto.Backend().Lookup("data").Append(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, err := sto.NewSession().Read(f, 1, 1)
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) || !cbe.Unverifiable {
		t.Fatalf("unrecorded tail should be Unverifiable: %v", err)
	}
}

func TestSessionContextCancellation(t *testing.T) {
	sto := NewSim(testConfig())
	f := mustFile(t, sto, "data")
	mustAppend(t, f, make([]byte, 128))
	s := sto.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	if _, err := s.Read(f, 0, 1); err != nil {
		t.Fatalf("live context should read fine: %v", err)
	}
	cancel()
	_, err := s.Read(f, 1, 1)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled read error %v, want ErrCanceled wrapping context.Canceled", err)
	}
	// Reset clears the context.
	s.Reset()
	if _, err := s.Read(f, 0, 1); err != nil {
		t.Fatalf("reset session should read fine: %v", err)
	}
}

func TestSessionRecover(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{7}, 128))
	corrupt(t, sto, "data", 0, 3)
	s := sto.NewSession()
	if _, err := s.Read(f, 0, 1); err == nil {
		t.Fatal("corrupt read should fail")
	}
	before := s.Stats
	s.Recover()
	if s.Err() != nil {
		t.Fatal("Recover should clear the sticky error")
	}
	// The session continues; prior charges are kept.
	if _, err := s.Read(f, 1, 1); err != nil {
		t.Fatalf("recovered session read: %v", err)
	}
	if s.Stats.BlocksRead < before.BlocksRead {
		t.Fatal("Recover must not forget charges")
	}
}
