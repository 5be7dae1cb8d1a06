package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestTruncateConformance(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		mustAppend(t, f, bytes.Repeat([]byte{1}, 64))
		mustAppend(t, f, bytes.Repeat([]byte{2}, 64))
		mustAppend(t, f, bytes.Repeat([]byte{3}, 64))
		if err := f.Truncate(5); err != nil { // past end: no-op
			t.Fatal(err)
		}
		if f.Blocks() != 3 {
			t.Fatalf("truncate past end changed extent to %d", f.Blocks())
		}
		if err := f.Truncate(1); err != nil {
			t.Fatal(err)
		}
		if f.Blocks() != 1 {
			t.Fatalf("blocks=%d after truncate to 1", f.Blocks())
		}
		got, err := f.ReadRaw(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 1 {
			t.Fatalf("surviving block content %d, want 1", got[0])
		}
		if _, err := f.ReadRaw(1, 1); err == nil {
			t.Fatal("read past truncated extent should fail")
		}
		// Appends resume at the shortened tail.
		pos, _ := mustAppend(t, f, bytes.Repeat([]byte{9}, 64))
		if pos != 1 {
			t.Fatalf("append after truncate at pos %d, want 1", pos)
		}
		if got, err = f.ReadRaw(1, 1); err != nil || got[0] != 9 {
			t.Fatalf("reappended block: %v %v", got, err)
		}
		if err := f.Truncate(-1); err == nil {
			t.Fatal("negative truncate should fail")
		}
	})
}

func TestRemoveConformance(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "gone")
		mustAppend(t, f, []byte("x"))
		mustFile(t, sto, "stays")
		if err := sto.Remove("gone"); err != nil {
			t.Fatal(err)
		}
		if sto.File("gone") != nil {
			t.Fatal("removed file still resolvable")
		}
		for _, n := range dataNames(sto) {
			if n == "gone" {
				t.Fatal("removed file still listed")
			}
		}
		if sto.File("stays") == nil {
			t.Fatal("unrelated file vanished")
		}
		if err := sto.Remove("never-existed"); err != nil {
			t.Fatal("removing a missing file should be a no-op:", err)
		}
		if err := sto.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRemoveSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	sto, err := OpenFileStore(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "doomed")
	mustAppend(t, f, []byte("x"))
	if err := sto.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}
	sto2, err := OpenFileStore(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto2.Close()
	if sto2.File("doomed") != nil {
		t.Fatal("removed file came back after reopen")
	}
}

func TestWALAppendCommitRoundtrip(t *testing.T) {
	backend := NewSimStore(testConfig())
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 10; i++ {
		lsns = append(lsns, w.Append(uint8(i%3), []byte(fmt.Sprintf("payload-%d", i))))
	}
	if w.DurableLSN() != 0 {
		t.Fatalf("durable before commit: %d", w.DurableLSN())
	}
	if err := w.Commit(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != lsns[len(lsns)-1] {
		t.Fatalf("durable %d, want %d", got, lsns[len(lsns)-1])
	}

	_, recs, info, err := OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(recs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[i] || r.Kind != uint8(i%3) || string(r.Payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

func TestWALMultiBatchAndLargeRecords(t *testing.T) {
	backend := NewSimStore(testConfig()) // 64-byte blocks
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	// Several commit batches, including a record spanning many blocks.
	big := bytes.Repeat([]byte{7}, 500)
	var last uint64
	for batch := 0; batch < 5; batch++ {
		w.Append(1, []byte("small"))
		last = w.Append(2, big)
		if err := w.Commit(last); err != nil {
			t.Fatal(err)
		}
	}
	_, recs, info, err := OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || len(recs) != 10 {
		t.Fatalf("torn=%v records=%d", info.Torn, len(recs))
	}
	for i, r := range recs {
		want := []byte("small")
		if i%2 == 1 {
			want = big
		}
		if !bytes.Equal(r.Payload, want) {
			t.Fatalf("record %d payload mismatch (%d bytes)", i, len(r.Payload))
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	backend := NewSimStore(testConfig())
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1, []byte("keep-1"))
	lsn := w.Append(1, []byte("keep-2"))
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	// A second committed batch whose bytes we then damage: flip one bit in
	// the middle of the last batch, modeling a tear at rest.
	lsn = w.Append(1, bytes.Repeat([]byte{5}, 200))
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	bf := backend.Lookup("t.wal")
	blocks := bf.Blocks()
	raw, err := bf.ReadBlocks(blocks-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dmg := append([]byte(nil), raw...)
	dmg[10] ^= 0x40
	if err := bf.WriteBlocks(blocks-1, dmg); err != nil {
		t.Fatal(err)
	}

	w2, recs, info, err := OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatal("damaged tail not reported torn")
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the tear", len(recs))
	}
	if bf.Blocks() >= blocks {
		t.Fatalf("torn tail not truncated: %d blocks, had %d", bf.Blocks(), blocks)
	}
	// The log must keep working after tail surgery: records appended now
	// must survive another recovery alongside the old ones.
	lsn = w2.Append(3, []byte("after-recovery"))
	if err := w2.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	_, recs, info, err = OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatal("log torn again after recovery + append")
	}
	if len(recs) != 3 || string(recs[2].Payload) != "after-recovery" {
		t.Fatalf("post-recovery scan: %d records", len(recs))
	}
	if recs[2].LSN <= recs[1].LSN {
		t.Fatalf("LSN not monotonic across recovery: %d then %d", recs[1].LSN, recs[2].LSN)
	}
}

func TestWALTornViaFaultStore(t *testing.T) {
	// Drive the tear through FaultStore like the kill-and-recover suite
	// does: the commit's multi-block append applies only a prefix.
	inner := NewSimStore(testConfig())
	fs := NewFaultStore(inner, FaultConfig{Seed: 42})
	w, err := CreateWAL(fs, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	lsn := w.Append(1, []byte("survives"))
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(FaultConfig{Seed: 42, Schedule: map[int]FaultKind{fs.Ops(): FaultTorn}})
	w.Append(1, bytes.Repeat([]byte{1}, 300))
	lsn = w.Append(1, bytes.Repeat([]byte{2}, 300))
	if err := w.Commit(lsn); err == nil {
		t.Fatal("torn append should fail the commit")
	}
	// Crash here: recovery sees at most a prefix of the torn batch. The
	// acked record must survive; unacked records from the failed commit
	// may or may not (the client never got an ack either way).
	fs.SetEnabled(false)
	_, recs, info, err := OpenWAL(fs, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 1 || string(recs[0].Payload) != "survives" {
		t.Fatalf("acked record lost: recovered %d records", len(recs))
	}
	if !info.Torn {
		t.Fatal("prefix of a torn batch not reported torn")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("LSN order violated at %d", i)
		}
	}
}

// TestWALGroupCommit: concurrent committers are all durable — every
// acknowledged record survives a reopen in LSN order — and no commit
// costs more than one fsync.
func TestWALGroupCommit(t *testing.T) {
	backend := NewSimStore(testConfig())
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	base := metricWALFsyncs.Value()
	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn := w.Append(1, binary.LittleEndian.AppendUint32(nil, uint32(g*1000+i)))
				if err := w.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	fsyncs := metricWALFsyncs.Value() - base
	if fsyncs > writers*perWriter {
		t.Fatalf("%d fsyncs for %d commits", fsyncs, writers*perWriter)
	}
	_, recs, _, err := OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(recs), writers*perWriter)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("LSN order violated at %d", i)
		}
	}
}

func TestWALReset(t *testing.T) {
	backend := NewSimStore(testConfig())
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Commit(w.Append(1, []byte("x")))
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Blocks() != 0 {
		t.Fatalf("%d blocks after reset", w.Blocks())
	}
	lsn := w.Append(1, []byte("post"))
	if lsn <= 5 {
		t.Fatalf("LSN %d reused after reset", lsn)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != lsn {
		t.Fatalf("post-reset recovery: %+v", recs)
	}
}

func TestWALFileStoreDurability(t *testing.T) {
	dir := t.TempDir()
	backend, err := OpenFileBackend(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateWAL(backend, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	lsn := w.Append(7, []byte("durable"))
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close — the fsync inside Commit must suffice.
	backend2, err := OpenFileBackend(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer backend2.Close()
	_, recs, _, err := OpenWAL(backend2, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "durable" || recs[0].Kind != 7 {
		t.Fatalf("recovered %+v", recs)
	}
}

func TestWALExemptFromChecksumSidecars(t *testing.T) {
	sto := NewSim(testConfig())
	backend := sto.Backend()
	w, err := CreateWAL(backend, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	w.Commit(w.Append(1, []byte("x")))
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	for _, n := range backend.Names() {
		if n == "iq.wal"+ChecksumSuffix {
			t.Fatal("WAL grew a checksum sidecar")
		}
	}
	// More commits after enabling; a scrub must stay clean even though
	// the WAL is appended beneath the File wrapper.
	w.Commit(w.Append(1, []byte("y")))
	rep, err := sto.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("scrub flagged WAL blocks: %+v", rep.Corrupt)
	}
}

func TestWALCommitAfterFailureStaysFailed(t *testing.T) {
	inner := NewSimStore(testConfig())
	fs := NewFaultStore(inner, FaultConfig{Seed: 1})
	w, err := CreateWAL(fs, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(FaultConfig{Seed: 1, Schedule: map[int]FaultKind{fs.Ops(): FaultTorn}})
	lsn := w.Append(1, bytes.Repeat([]byte{1}, 300))
	if err := w.Commit(lsn); err == nil {
		t.Fatal("want commit failure")
	}
	fs.SetEnabled(false)
	// The flush lost buffered bytes; later commits must keep failing
	// instead of reporting durability that cannot exist.
	lsn2 := w.Append(1, []byte("after"))
	if err := w.Commit(lsn2); err == nil {
		t.Fatal("commit after failed flush must fail")
	}
	if err := w.Commit(lsn2); err == nil {
		t.Fatal("sticky error lost on retry")
	}
}

// TestWALShortBlockRemainderIsPadding: three records in one commit plus
// one after it recover as four. Each 21-byte frame takes a 64-byte block
// of its own, so the scan steps over the zero padding after every frame,
// within a commit and between commits.
func TestWALShortBlockRemainderIsPadding(t *testing.T) {
	backend := NewSimStore(testConfig()) // 64-byte blocks
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4} // 17-byte header + 4 = 21-byte frames
	var lsn uint64
	for i := 0; i < 3; i++ {
		lsn = w.Append(1, payload)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(w.Append(1, payload)); err != nil {
		t.Fatal(err)
	}
	_, recs, info, err := OpenWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || info.Torn {
		t.Fatalf("recovered %d of 4 records, torn=%v", len(recs), info.Torn)
	}
}

// TestWALCommittedRecordsSurvive is the durability property over the
// inputs hand-picked cases miss: random block sizes, record sizes and
// commit splits. The log has one layout whatever the split: each
// record's frame, in LSN order, zero-padded to whole blocks. Every
// committed LSN must survive recovery (OpenWAL), inspection, and a copy
// onto another backend (Copy, then recovery there); a clean log is never
// reported torn, and a real tear in the last batch is reported and loses
// nothing committed before it.
func TestWALCommittedRecordsSurvive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		cfg := testConfig()
		cfg.BlockSize = []int{32, 48, 64, 100, 256}[r.Intn(5)]
		src := NewSimStore(cfg)
		w, err := CreateWAL(src, "iq.wal")
		if err != nil {
			t.Fatal(err)
		}
		var want []WALRecord
		batchStart, beforeLast := 0, 0 // blocks and records before the last batch
		for b := 1 + r.Intn(6); b > 0; b-- {
			batchStart, beforeLast = src.Lookup("iq.wal").Blocks(), len(want)
			var lsn uint64
			for n := 1 + r.Intn(5); n > 0; n-- {
				// A 256-byte frame has a zero low length byte, so a reader
				// that took a zero byte for padding would drop it.
				size := 256 - walHeaderSize
				if r.Intn(3) > 0 {
					size = r.Intn(3 * cfg.BlockSize)
				}
				payload := make([]byte, size)
				r.Read(payload)
				kind := uint8(r.Intn(4))
				lsn = w.Append(kind, payload)
				want = append(want, WALRecord{LSN: lsn, Kind: kind, Payload: payload})
			}
			if err := w.Commit(lsn); err != nil {
				t.Fatal(err)
			}
		}
		var layout []byte
		for _, rec := range want {
			layout = append(layout, encodeWALFrame(rec.LSN, rec.Kind, rec.Payload)...)
			if rem := len(layout) % cfg.BlockSize; rem != 0 {
				layout = append(layout, make([]byte, cfg.BlockSize-rem)...)
			}
		}
		bf := src.Lookup("iq.wal")
		if raw, err := bf.ReadBlocks(0, bf.Blocks()); err != nil || !bytes.Equal(raw, layout) {
			t.Fatalf("iter %d (block %d): the log is not its %d frames, each padded to whole blocks (%d bytes, want %d; %v)",
				iter, cfg.BlockSize, len(want), bf.Bytes(), len(layout), err)
		}
		check := func(what string, got []WALRecord, torn bool) {
			t.Helper()
			if torn {
				t.Fatalf("iter %d (block %d): %s reported a clean log torn", iter, cfg.BlockSize, what)
			}
			if len(got) != len(want) {
				t.Fatalf("iter %d (block %d): %s kept %d of %d records", iter, cfg.BlockSize, what, len(got), len(want))
			}
			for i := range want {
				if got[i].LSN != want[i].LSN || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("iter %d: %s record %d differs", iter, what, i)
				}
			}
		}
		info, recs, err := InspectWAL(src, "iq.wal")
		if err != nil {
			t.Fatal(err)
		}
		check("InspectWAL", recs, info.Torn)

		dst := NewSimStore(cfg)
		if err := Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		_, recs, info, err = OpenWAL(dst, "iq.wal")
		if err != nil {
			t.Fatal(err)
		}
		check("Copy", recs, info.Torn)

		_, recs, info, err = OpenWAL(src, "iq.wal")
		if err != nil {
			t.Fatal(err)
		}
		check("OpenWAL", recs, info.Torn)

		// Tear the last batch: flip a bit in its first frame's header.
		blk, err := bf.ReadBlocks(batchStart, 1)
		if err != nil {
			t.Fatal(err)
		}
		dmg := append([]byte(nil), blk...)
		dmg[5] ^= 0x20
		if err := bf.WriteBlocks(batchStart, dmg); err != nil {
			t.Fatal(err)
		}
		_, recs, info, err = OpenWAL(src, "iq.wal")
		if err != nil {
			t.Fatal(err)
		}
		if !info.Torn {
			t.Fatalf("iter %d: a torn last batch was not reported", iter)
		}
		want = want[:beforeLast]
		check("OpenWAL after a tear", recs, false)
	}
}
