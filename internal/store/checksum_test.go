package store

import (
	"bytes"
	"context"
	"errors"
	"strings"
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

// TestChecksumVerifiesBeforeCaching: a frame holds either backend bytes
// verified on the way in or the writer's own bytes. A corrupt block read
// from the backend must never be inserted into the buffer pool — a later
// read may not silently hit a poisoned frame. A block written through an
// attached pool is served from the writer's bytes, so damage done to it
// at rest afterwards is not seen by reads; the scrub, which reads the
// device, reports it.
func TestChecksumVerifiesBeforeCaching(t *testing.T) {
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{1}, 64))
	sto.SetCache(1 << 20) // after the write: the read below is cold
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

	// Written through the pool, then flipped at rest.
	want := bytes.Repeat([]byte{2}, 64)
	pos, _ := mustAppend(t, f, want)
	corrupt(t, sto, "data", pos, 5)
	s = sto.NewSession()
	got, err := s.Read(f, pos, 1)
	if err != nil {
		t.Fatalf("written block should be served from the pool: %v", err)
	}
	if !bytes.Equal(got, want) || s.Stats.BlocksRead != 0 {
		t.Fatalf("pooled read of a written block: clean=%v, charged %d blocks", bytes.Equal(got, want), s.Stats.BlocksRead)
	}
	rep, err := sto.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	wantCorrupt := []CorruptBlock{{File: "data", Block: 0}, {File: "data", Block: pos}}
	if len(rep.Corrupt) != 2 || rep.Corrupt[0] != wantCorrupt[0] || rep.Corrupt[1] != wantCorrupt[1] {
		t.Fatalf("scrub reported %+v, want %+v", rep.Corrupt, wantCorrupt)
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

// TestChecksumFailedAttachServesNothing: when EnableChecksums cannot
// load a data file's sidecar, the checked store must not hand that file
// out without sums. Every lookup retries the attach and fails (nil, the
// sticky error naming the sidecar), so a damaged block is never read as
// clean data; once the sidecar is repaired, the next lookup attaches.
func TestChecksumFailedAttachServesNothing(t *testing.T) {
	sto := NewSim(testConfig())
	mustAppend(t, mustFile(t, sto, "data"), bytes.Repeat([]byte{0x5A}, 128))
	side, err := sto.Backend().Create("data" + ChecksumSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := side.Append([]byte("not a checksum sidecar")); err != nil {
		t.Fatal(err)
	}
	if err := sto.EnableChecksums(); err == nil {
		t.Fatal("EnableChecksums accepted a sidecar with a bad magic")
	}
	if !sto.Checked() {
		t.Fatal("store not checked after EnableChecksums")
	}
	corrupt(t, sto, "data", 1, 3)
	for i := 0; i < 2; i++ {
		if f := sto.File("data"); f != nil {
			_, err := sto.NewSession().Read(f, 0, 2)
			t.Fatalf("lookup %d: checked store served a file without sums (read error: %v)", i, err)
		}
	}
	if err := sto.Err(); err == nil || !strings.Contains(err.Error(), "data"+ChecksumSuffix) {
		t.Fatalf("sticky error %v does not name the sidecar", err)
	}

	// A repaired sidecar: this one is adopted from the current content.
	if err := sto.Backend().Remove("data" + ChecksumSuffix); err != nil {
		t.Fatal(err)
	}
	f := sto.File("data")
	if f == nil {
		t.Fatal("lookup after the sidecar was repaired found no file")
	}
	if f != sto.File("data") {
		t.Fatal("wrapper not canonical once its sums attached")
	}
	corrupt(t, sto, "data", 0, 9)
	var cbe *CorruptBlockError
	if _, err := sto.NewSession().Read(f, 0, 1); !errors.As(err, &cbe) || cbe.Block != 0 {
		t.Fatalf("damage after the attach not caught: %v", err)
	}
}

// TestChecksumHeldWrapperFailsUnverified: a wrapper taken before
// EnableChecksums, whose sidecar then fails to load, must not serve its
// bytes unverified. A session read and ReadRaw fail with an error that
// names the sidecar, and the scrub, which vouches for the whole store,
// fails naming the file instead of reporting it clean. The failure does
// not stop the other files' attach: a held wrapper of a sound file
// after it verifies its reads.
func TestChecksumHeldWrapperFailsUnverified(t *testing.T) {
	sto := NewSim(testConfig())
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{0x5A}, 128))
	sound := mustFile(t, sto, "sound")
	mustAppend(t, sound, bytes.Repeat([]byte{0x5A}, 128))
	sidecar := "data" + ChecksumSuffix
	side, err := sto.Backend().Create(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := side.Append([]byte("not a checksum sidecar")); err != nil {
		t.Fatal(err)
	}
	if err := sto.EnableChecksums(); err == nil {
		t.Fatal("EnableChecksums accepted a sidecar with a bad magic")
	}
	corrupt(t, sto, "data", 1, 3) // 0x5a reads back as 0x52
	corrupt(t, sto, "sound", 1, 3)
	var cbe *CorruptBlockError
	if _, err := sto.NewSession().Read(sound, 1, 1); !errors.As(err, &cbe) || cbe.File != "sound" || cbe.Block != 1 {
		t.Fatalf("held wrapper of a sound file after the failed attach: %v", err)
	}

	if got, err := sto.NewSession().Read(f, 1, 1); err == nil {
		t.Fatalf("session read served unverified bytes (byte 0 = %#x)", got[0])
	} else if !strings.Contains(err.Error(), sidecar) {
		t.Fatalf("session read error %q does not name the sidecar %s", err, sidecar)
	}
	if got, err := f.ReadRaw(1, 1); err == nil {
		t.Fatalf("ReadRaw served unverified bytes (byte 0 = %#x)", got[0])
	} else if !strings.Contains(err.Error(), sidecar) {
		t.Fatalf("ReadRaw error %q does not name the sidecar %s", err, sidecar)
	}

	rep, err := sto.Scrub()
	if err == nil || !strings.Contains(err.Error(), `["data"]`) {
		t.Fatalf("scrub with an unverifiable data file: %d blocks checked, corrupt %+v, error %v",
			rep.BlocksChecked, rep.Corrupt, err)
	}
}
