package store

import (
	"bytes"
	"errors"
	"testing"
)

// rawBytes reads every block of the named file straight off a backend.
func rawBytes(t *testing.T, backend BlockStore, name string) []byte {
	t.Helper()
	bf := backend.Lookup(name)
	if bf == nil {
		t.Fatalf("%s: missing", name)
	}
	if bf.Blocks() == 0 {
		return nil
	}
	data, err := bf.ReadBlocks(0, bf.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), data...)
}

// copySource builds a checksummed store holding two data files (so two
// .crc sidecars), an empty file, and a log whose last batch is torn.
func copySource(t *testing.T) *Store {
	t.Helper()
	sto := NewSim(testConfig())
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, mustFile(t, sto, "data"), bytes.Repeat([]byte{0xAB}, 3*testConfig().BlockSize))
	mustAppend(t, mustFile(t, sto, "dir"), []byte("directory"))
	mustFile(t, sto, "empty")
	w, err := CreateWAL(sto.Backend(), "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(w.Append(1, []byte("kept"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(w.Append(1, bytes.Repeat([]byte{5}, 200))); err != nil {
		t.Fatal(err)
	}
	bf := sto.Backend().Lookup("iq.wal")
	last, err := bf.ReadBlocks(bf.Blocks()-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dmg := append([]byte(nil), last...)
	dmg[10] ^= 0x40
	if err := bf.WriteBlocks(bf.Blocks()-1, dmg); err != nil {
		t.Fatal(err)
	}
	return sto
}

// TestCopyMakesExactTwin: Copy wipes every destination file the source
// lacks and delivers every source file byte-identical — the torn log
// and the checksum sidecars included — so the destination scrubs clean
// and its log recovers exactly like the source's.
func TestCopyMakesExactTwin(t *testing.T) {
	src := copySource(t)
	dst := NewSimStore(testConfig())
	for _, name := range []string{"stale", "data"} {
		f, err := dst.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Append(bytes.Repeat([]byte{0xFF}, 5*testConfig().BlockSize)); err != nil {
			t.Fatal(err)
		}
	}

	if err := Copy(dst, src.Backend()); err != nil {
		t.Fatal(err)
	}
	names := src.Backend().Names()
	if got := dst.Names(); len(got) != len(names) {
		t.Fatalf("destination holds %v, want %v", got, names)
	}
	var sidecars int
	for _, name := range names {
		if IsChecksumFile(name) {
			sidecars++
		}
		if !bytes.Equal(rawBytes(t, dst, name), rawBytes(t, src.Backend(), name)) {
			t.Fatalf("%s differs after the copy", name)
		}
	}
	if sidecars != 3 {
		t.Fatalf("%d checksum sidecars copied, want 3", sidecars)
	}

	twin := Wrap(dst)
	if err := twin.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	rep, err := twin.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 0 || rep.BlocksChecked != 4 {
		t.Fatalf("scrub of the copy: %d blocks checked, corrupt %+v", rep.BlocksChecked, rep.Corrupt)
	}
	_, recs, info, err := OpenWAL(dst, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || len(recs) != 1 || string(recs[0].Payload) != "kept" {
		t.Fatalf("copied log: torn=%v, %d records", info.Torn, len(recs))
	}
}

// TestCopyReadErrorFails: a source read that fails is the copy's
// error, not a silently short file.
func TestCopyReadErrorFails(t *testing.T) {
	src := NewFaultStore(copySource(t).Backend(), FaultConfig{Seed: 1, ReadErr: 1})
	err := Copy(NewSimStore(testConfig()), src)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("copy over a failing source: %v, want a transient read error", err)
	}
}

// TestShipAllEmptyWAL: shipping a checkpoint-only store, whose log holds
// no records, delivers the data untouched and a log that opens clean —
// empty, not torn — and that takes the replica's next commit.
func TestShipAllEmptyWAL(t *testing.T) {
	src := NewSimStore(testConfig())
	if _, err := CreateWAL(src, "iq.wal"); err != nil {
		t.Fatal(err)
	}
	df, err := src.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := df.Append([]byte("checkpointed state")); err != nil {
		t.Fatal(err)
	}

	dst := NewSimStore(testConfig())
	if err := Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawBytes(t, dst, "data"), rawBytes(t, src, "data")) {
		t.Fatal("data differs after the copy")
	}
	w, recs, info, err := OpenWAL(dst, "iq.wal")
	if err != nil || len(recs) != 0 || info.Torn {
		t.Fatalf("destination log: err=%v records=%d torn=%v", err, len(recs), info.Torn)
	}
	// The copied empty log continues from where the source left off.
	if err := w.Commit(w.Append(1, []byte("next"))); err != nil {
		t.Fatal(err)
	}
	if _, recs, _, err := OpenWAL(dst, "iq.wal"); err != nil || len(recs) != 1 || string(recs[0].Payload) != "next" {
		t.Fatalf("log after the replica's first commit: err=%v records=%d", err, len(recs))
	}
}
