package store

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/obs"
)

func testConfig() Config {
	return Config{BlockSize: 64, Seek: 0.01, Xfer: 0.001, DistCPU: 1e-7, ApproxCPU: 1e-7}
}

// forEachBackend runs the same subtest against every backend: the
// simulator, the os.File-backed store, the simulator with checksums
// enabled (verification must be invisible to correct code), and the
// simulator under a zero-probability FaultStore wrapper (the fault
// layer must be a perfect pass-through when idle). All must satisfy
// the exact same block semantics and cost accounting.
func forEachBackend(t *testing.T, fn func(t *testing.T, sto *Store)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) {
		fn(t, NewSim(testConfig()))
	})
	t.Run("file", func(t *testing.T) {
		sto, err := OpenFileStore(t.TempDir(), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer sto.Close()
		fn(t, sto)
	})
	t.Run("sim-checked", func(t *testing.T) {
		sto := NewSim(testConfig())
		if err := sto.EnableChecksums(); err != nil {
			t.Fatal(err)
		}
		fn(t, sto)
	})
	t.Run("sim-faultwrap", func(t *testing.T) {
		fn(t, Wrap(NewFaultStore(NewSimStore(testConfig()), FaultConfig{Seed: 1})))
	})
}

// dataNames returns the backend's file names with checksum sidecars
// filtered out, so name-sensitive tests hold on checked stores too.
func dataNames(sto *Store) []string {
	var out []string
	for _, n := range sto.Backend().Names() {
		if !IsChecksumFile(n) {
			out = append(out, n)
		}
	}
	return out
}

func mustFile(t *testing.T, sto *Store, name string) *File {
	t.Helper()
	f, err := sto.NewFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustAppend(t *testing.T, f *File, p []byte) (int, int) {
	t.Helper()
	pos, n, err := f.Append(p)
	if err != nil {
		t.Fatal(err)
	}
	return pos, n
}

func TestAppendAlignsToBlocks(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		pos, n := mustAppend(t, f, make([]byte, 100))
		if pos != 0 || n != 2 {
			t.Fatalf("first append pos=%d n=%d", pos, n)
		}
		pos, n = mustAppend(t, f, make([]byte, 1))
		if pos != 2 || n != 1 {
			t.Fatalf("second append pos=%d n=%d", pos, n)
		}
		pos, n = mustAppend(t, f, nil)
		if pos != 3 || n != 1 {
			t.Fatalf("empty append pos=%d n=%d (should reserve one block)", pos, n)
		}
		if f.Blocks() != 4 || f.Bytes() != 256 {
			t.Fatalf("blocks=%d bytes=%d", f.Blocks(), f.Bytes())
		}
	})
}

func TestReadRoundtripAndCost(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		payload := []byte("hello, block world")
		mustAppend(t, f, payload)
		mustAppend(t, f, bytes.Repeat([]byte{7}, 64))

		s := sto.NewSession()
		got, err := s.Read(f, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(payload)], payload) {
			t.Fatal("read returned wrong bytes")
		}
		if s.Stats.Seeks != 1 || s.Stats.BlocksRead != 1 {
			t.Fatalf("first read stats: %+v", s.Stats)
		}
		// Sequential continuation: no extra seek.
		if _, err := s.Read(f, 1, 1); err != nil {
			t.Fatal(err)
		}
		if s.Stats.Seeks != 1 || s.Stats.BlocksRead != 2 {
			t.Fatalf("sequential read stats: %+v", s.Stats)
		}
		// Going backwards costs a seek.
		if _, err := s.Read(f, 0, 1); err != nil {
			t.Fatal(err)
		}
		if s.Stats.Seeks != 2 {
			t.Fatalf("backward read stats: %+v", s.Stats)
		}
		wantTime := 2*0.01 + 3*0.001
		if math.Abs(s.Time()-wantTime) > 1e-12 {
			t.Fatalf("time %f, want %f", s.Time(), wantTime)
		}
	})
}

func TestCrossFileSeek(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		a := mustFile(t, sto, "a")
		b := mustFile(t, sto, "b")
		mustAppend(t, a, make([]byte, 64))
		mustAppend(t, b, make([]byte, 64))
		s := sto.NewSession()
		if _, err := s.Read(a, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(b, 0, 1); err != nil { // different file: must seek
			t.Fatal(err)
		}
		if s.Stats.Seeks != 2 {
			t.Fatalf("cross-file seeks = %d, want 2", s.Stats.Seeks)
		}
	})
}

func TestReadRange(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		data := make([]byte, 300)
		for i := range data {
			data[i] = byte(i)
		}
		mustAppend(t, f, data)
		s := sto.NewSession()
		// Bytes 100..149 span blocks 1..2.
		buf, rel, err := s.ReadRange(f, 100, 50)
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats.BlocksRead != 2 {
			t.Fatalf("blocks read %d, want 2", s.Stats.BlocksRead)
		}
		for i := 0; i < 50; i++ {
			if buf[rel+i] != byte(100+i) {
				t.Fatalf("byte %d = %d, want %d", i, buf[rel+i], 100+i)
			}
		}
	})
}

func TestWriteBlocksAndSetContents(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		mustAppend(t, f, make([]byte, 128))
		repl := bytes.Repeat([]byte{9}, 64)
		if err := f.bf.WriteBlocks(1, repl); err != nil {
			t.Fatal(err)
		}
		got, err := f.bf.ReadBlocks(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, repl) {
			t.Fatal("WriteBlocks did not replace the block")
		}
		if err := f.SetContents([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		got, err = f.ReadRaw(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Blocks() != 1 || got[0] != 1 {
			t.Fatal("SetContents wrong")
		}
		if err := f.SetContents(nil); err != nil {
			t.Fatal(err)
		}
		if f.Blocks() != 0 {
			t.Fatal("SetContents(nil) should truncate")
		}
	})
}

func TestWriteBlocksErrors(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		mustAppend(t, f, make([]byte, 64))
		if err := f.bf.WriteBlocks(0, make([]byte, 10)); err == nil {
			t.Fatal("unaligned WriteBlocks should fail")
		}
	})
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		mustAppend(t, f, make([]byte, 64))
		if err := f.bf.WriteBlocks(1, make([]byte, 64)); err == nil {
			t.Fatal("WriteBlocks past end should fail")
		}
	})
}

func TestReadPastEndFails(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		f := mustFile(t, sto, "t")
		mustAppend(t, f, make([]byte, 64))
		s := sto.NewSession()
		if _, err := s.Read(f, 0, 2); err == nil {
			t.Fatal("expected error reading past end")
		}
		if s.Err() == nil {
			t.Fatal("session should carry the sticky read error")
		}
		// The sticky error short-circuits later reads.
		if _, err := s.Read(f, 0, 1); err == nil {
			t.Fatal("sticky session error should fail subsequent reads")
		}
		// A fresh session is unaffected.
		s2 := sto.NewSession()
		if _, err := s2.Read(f, 0, 1); err != nil {
			t.Fatalf("fresh session: %v", err)
		}
	})
}

func TestCPUCharges(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		s := sto.NewSession()
		tr := obs.NewQueryTrace("")
		s.SetTrace(tr)
		f := mustFile(t, sto, "cpu")
		s.ChargeDistCPU(f, 16, 10)   // 16e-6
		s.ChargeApproxCPU(f, 8, 100) // 80e-6
		s.ChargeDistCPU(nil, 1, 1e4) // unattributed: 1e-3
		want := 16*10*1e-7 + 8*100*1e-7 + 1e-3
		if math.Abs(s.Stats.CPUSeconds-want) > 1e-15 {
			t.Fatalf("cpu %g, want %g", s.Stats.CPUSeconds, want)
		}
		// Attributed CPU shows up in the file's trace level; the
		// unattributed charge under the empty name.
		if got := tr.Level("cpu").CPUSeconds; math.Abs(got-(16*10*1e-7+8*100*1e-7)) > 1e-15 {
			t.Fatalf("per-file cpu %g", got)
		}
		if got := tr.Level("").CPUSeconds; math.Abs(got-1e-3) > 1e-15 {
			t.Fatalf("unattributed cpu %g", got)
		}
	})
}

func TestTotalBlocks(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		mustAppend(t, mustFile(t, sto, "a"), make([]byte, 65))
		mustAppend(t, mustFile(t, sto, "b"), make([]byte, 64))
		if sto.TotalBlocks() != 3 {
			t.Fatalf("total blocks %d", sto.TotalBlocks())
		}
	})
}

func TestLookupAndNames(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		mustFile(t, sto, "b")
		mustFile(t, sto, "a")
		names := dataNames(sto)
		if len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Fatalf("names %v", names)
		}
		if sto.File("a") == nil || sto.File("missing") != nil {
			t.Fatal("File lookup wrong")
		}
		// File returns the canonical wrapper: same pointer every time.
		if sto.File("a") != sto.File("a") {
			t.Fatal("File should be canonical")
		}
	})
}

// TestCachedReadsChargeNothing is the core buffer-pool contract: a block
// served from the cache costs no simulated seek or transfer, on either
// backend.
func TestCachedReadsChargeNothing(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		sto.SetCache(1 << 20)
		f := mustFile(t, sto, "t")
		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(i)
		}
		mustAppend(t, f, data)

		cold := sto.NewSession()
		got, err := cold.Read(f, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("cold read wrong bytes")
		}
		if cold.Stats.Seeks != 1 || cold.Stats.BlocksRead != 4 {
			t.Fatalf("cold stats: %+v", cold.Stats)
		}

		warm := sto.NewSession()
		got, err = warm.Read(f, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("warm read wrong bytes")
		}
		if warm.Stats.Seeks != 0 || warm.Stats.BlocksRead != 0 {
			t.Fatalf("warm read should be free, got %+v", warm.Stats)
		}
		ps := sto.Pool().Stats()
		if ps.Hits != 4 || ps.Misses != 4 {
			t.Fatalf("pool stats: %+v", ps)
		}
	})
}

// TestCacheMissRunCharging: a read with a cached hole in the middle pays
// for exactly the missing runs.
func TestCacheMissRuns(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		sto.SetCache(1 << 20)
		f := mustFile(t, sto, "t")
		data := make([]byte, 64*6)
		for i := range data {
			data[i] = byte(i / 64)
		}
		mustAppend(t, f, data)

		s := sto.NewSession()
		if _, err := s.Read(f, 2, 2); err != nil { // cache blocks 2,3
			t.Fatal(err)
		}
		s2 := sto.NewSession()
		got, err := s2.Read(f, 0, 6) // misses 0-1 and 4-5, hits 2-3
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("mixed hit/miss read wrong bytes")
		}
		if s2.Stats.BlocksRead != 4 {
			t.Fatalf("blocks charged %d, want 4 (two miss runs)", s2.Stats.BlocksRead)
		}
		if s2.Stats.Seeks != 2 {
			t.Fatalf("seeks %d, want 2 (one per miss run)", s2.Stats.Seeks)
		}
	})
}

// TestCacheInvalidation: SetContents drops the whole file's cached
// blocks.
func TestCacheInvalidation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, sto *Store) {
		sto.SetCache(1 << 20)
		f := mustFile(t, sto, "t")
		mustAppend(t, f, bytes.Repeat([]byte{1}, 128))
		s := sto.NewSession()
		if _, err := s.Read(f, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := f.SetContents(bytes.Repeat([]byte{3}, 64)); err != nil {
			t.Fatal(err)
		}
		s3 := sto.NewSession()
		got, err := s3.Read(f, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 3 {
			t.Fatalf("stale cache after SetContents: %d", got[0])
		}
	})
}
