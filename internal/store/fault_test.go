package store

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestFaultDeterminism: the same seed injects the same faults at the
// same operations.
func TestFaultDeterminism(t *testing.T) {
	run := func() (map[FaultKind]int, []error) {
		fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{Seed: 42, ReadErr: 0.3, Flip: 0.2})
		bf, err := fs.Create("t")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := bf.Append(bytes.Repeat([]byte{9}, 64*8)); err != nil {
			t.Fatal(err)
		}
		var errs []error
		for i := 0; i < 50; i++ {
			_, err := bf.ReadBlocks(i%8, 1)
			errs = append(errs, err)
		}
		return fs.Injected(), errs
	}
	inj1, errs1 := run()
	inj2, errs2 := run()
	if len(inj1) == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
	for k, v := range inj1 {
		if inj2[k] != v {
			t.Fatalf("tallies differ for %s: %d vs %d", k, v, inj2[k])
		}
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("op %d: error presence differs", i)
		}
	}
}

// TestFaultTransientReadRetried: the session retry policy absorbs
// scheduled transient read errors — the caller sees clean data.
func TestFaultTransientReadRetried(t *testing.T) {
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{
		Schedule: map[int]FaultKind{2: FaultReadErr}, // ops 0,1 = append+read? placed below
	})
	sto := Wrap(fs)
	f := mustFile(t, sto, "t")
	payload := bytes.Repeat([]byte{3}, 64)
	mustAppend(t, f, payload) // op 0 (append)
	before := metricReadRetries.Value()

	s := sto.NewSession()
	if _, err := s.Read(f, 0, 1); err != nil { // op 1: clean
		t.Fatal(err)
	}
	got, err := s.Read(f, 0, 1) // op 2: injected transient, op 3: retry succeeds
	if err != nil {
		t.Fatalf("transient fault should be retried away: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("retried read returned wrong bytes")
	}
	if metricReadRetries.Value() <= before {
		t.Fatal("retry metric did not move")
	}
}

// TestFaultTransientWriteRetried: File mutations retry transient write
// faults under the store policy.
func TestFaultTransientWriteRetried(t *testing.T) {
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{
		Schedule: map[int]FaultKind{0: FaultWriteErr},
	})
	sto := Wrap(fs)
	f := mustFile(t, sto, "t")
	if _, _, err := f.Append(bytes.Repeat([]byte{5}, 64)); err != nil { // op 0 fails, op 1 retried
		t.Fatalf("transient append should be retried away: %v", err)
	}
	if got, err := f.ReadRaw(0, 1); err != nil || got[0] != 5 {
		t.Fatalf("after retried append: %v", err)
	}
	if sto.Err() != nil {
		t.Fatalf("store poisoned by a retried fault: %v", sto.Err())
	}
}

// TestFaultRetriesExhausted: a persistently failing operation surfaces
// its error after the bounded retries, and the exhaustion is counted.
func TestFaultRetriesExhausted(t *testing.T) {
	sched := make(map[int]FaultKind)
	for i := 0; i < 32; i++ {
		sched[i] = FaultReadErr
	}
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{Schedule: sched})
	fs.SetEnabled(false)
	sto := Wrap(fs)
	sto.SetRetryPolicy(RetryPolicy{MaxRetries: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	f := mustFile(t, sto, "t")
	mustAppend(t, f, make([]byte, 64))
	fs.SetEnabled(true)

	before := metricRetriesExhausted.Value()
	if _, err := sto.NewSession().Read(f, 0, 1); !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retries should surface the transient error, got %v", err)
	}
	if metricRetriesExhausted.Value() <= before {
		t.Fatal("exhaustion metric did not move")
	}
}

// TestFaultFlipCaughtByChecksums is the tentpole contract: an injected
// at-rest bit flip is caught by the checksum layer and never returned
// as valid data.
func TestFaultFlipCaughtByChecksums(t *testing.T) {
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{})
	sto := Wrap(fs)
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "t")
	mustAppend(t, f, bytes.Repeat([]byte{0xEE}, 64*4))

	fs.SetConfig(FaultConfig{Schedule: map[int]FaultKind{fs.Ops(): FaultFlip}})
	_, err := sto.NewSession().Read(f, 0, 4)
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("flip not caught by checksums: %v", err)
	}
	// The flip persisted at rest: a scrub finds exactly one bad block.
	rep, err := sto.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].File != "t" || rep.Corrupt[0].Block != cbe.Block {
		t.Fatalf("scrub after flip: %+v (read reported block %d)", rep.Corrupt, cbe.Block)
	}
}

// TestFaultTornWrite: a torn multi-block append applies a prefix and
// fails permanently — no retry masks it — and the checksum layer
// refuses the half-written tail.
func TestFaultTornWrite(t *testing.T) {
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{})
	sto := Wrap(fs)
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "t")
	mustAppend(t, f, bytes.Repeat([]byte{1}, 64)) // block 0: intact

	retriesBefore := metricWriteRetries.Value()
	fs.SetConfig(FaultConfig{Schedule: map[int]FaultKind{fs.Ops(): FaultTorn}})
	_, _, err := f.Append(bytes.Repeat([]byte{2}, 64*4))
	if err == nil {
		t.Fatal("torn append should fail")
	}
	if errors.Is(err, ErrTransient) {
		t.Fatal("torn writes must be permanent, not transient")
	}
	if metricWriteRetries.Value() != retriesBefore {
		t.Fatal("a permanent torn write must not be retried")
	}
	if sto.Err() == nil {
		t.Fatal("torn write should poison the store")
	}
	// The surviving prefix has no recorded sums, so it reads back as
	// corruption, never as trusted data.
	if f.Blocks() > 1 {
		_, rerr := sto.NewSession().Read(f, 1, 1)
		var cbe *CorruptBlockError
		if !errors.As(rerr, &cbe) {
			t.Fatalf("torn tail read should fail checksum, got %v", rerr)
		}
	}
	// Block 0 is still intact and verified.
	if got, err := sto.NewSession().Read(f, 0, 1); err != nil || got[0] != 1 {
		t.Fatalf("intact prefix: %v", err)
	}
}

// TestFaultDisabledIsPassthrough: with injection off the wrapper is
// invisible.
func TestFaultDisabledIsPassthrough(t *testing.T) {
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{Seed: 3, ReadErr: 1})
	fs.SetEnabled(false)
	sto := Wrap(fs)
	f := mustFile(t, sto, "t")
	mustAppend(t, f, bytes.Repeat([]byte{4}, 64))
	if _, err := sto.NewSession().Read(f, 0, 1); err != nil {
		t.Fatalf("disabled faults should pass through: %v", err)
	}
	if fs.InjectedTotal() != 0 {
		t.Fatalf("disabled wrapper injected %d faults", fs.InjectedTotal())
	}
	if fs.Ops() == 0 {
		t.Fatal("op counter should keep running while disabled")
	}
}

// TestFailedRewriteDropsFrames: a rewrite the backend tears leaves no
// frame of the file in the pool, so a pooled read behaves exactly like an
// uncached one. Here both fail with the same CorruptBlockError: the torn
// blocks do not match the sums the sidecar still holds for the old
// contents. A pool that kept the old frames would serve them instead.
func TestFailedRewriteDropsFrames(t *testing.T) {
	fs := NewFaultStore(NewSimStore(testConfig()), FaultConfig{Seed: 5})
	sto := Wrap(fs)
	if err := sto.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	sto.SetCache(1 << 20)
	f := mustFile(t, sto, "data")
	mustAppend(t, f, bytes.Repeat([]byte{1}, 4*64))
	if _, err := sto.NewSession().Read(f, 0, 4); err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(FaultConfig{Schedule: map[int]FaultKind{fs.Ops(): FaultTorn}})
	if err := f.SetContents(bytes.Repeat([]byte{2}, 4*64)); err == nil {
		t.Fatal("the scheduled torn rewrite succeeded")
	}
	if got := residentBlocks(sto.Pool(), "data"); len(got) != 0 {
		t.Fatalf("blocks %v of the torn file are still resident", got)
	}
	n := f.Blocks()
	_, perr := sto.NewSession().Read(f, 0, n)
	_, rerr := f.ReadRaw(0, n)
	var pc, rc *CorruptBlockError
	switch {
	case !errors.As(rerr, &rc):
		t.Fatalf("uncached read of the torn file: %v, want a CorruptBlockError", rerr)
	case !errors.As(perr, &pc):
		t.Fatalf("pooled read of the torn file: %v; uncached read: %v", perr, rerr)
	case *pc != *rc:
		t.Fatalf("pooled read failed on %+v, uncached read on %+v", *pc, *rc)
	}
}
