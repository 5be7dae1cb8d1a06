package store

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultKind classifies one injected fault.
type FaultKind int

const (
	FaultNone FaultKind = iota
	// FaultReadErr fails a read with a transient error (nothing read).
	FaultReadErr
	// FaultWriteErr fails a mutation with a transient error (nothing
	// applied), so a retry is safe and should succeed.
	FaultWriteErr
	// FaultFlip flips one random bit of a read's result AND persists the
	// flip to the backing file, modeling at-rest media corruption. The
	// flip bypasses any checksum maintenance above the backend, so a
	// checksummed store must catch it on read.
	FaultFlip
	// FaultTorn applies only a prefix of a multi-block write and then
	// fails with a permanent error, modeling a crash mid-write.
	FaultTorn
	// FaultLatency delays the operation by the configured duration.
	FaultLatency
)

// String names a fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultReadErr:
		return "read-err"
	case FaultWriteErr:
		return "write-err"
	case FaultFlip:
		return "flip"
	case FaultTorn:
		return "torn"
	case FaultLatency:
		return "latency"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultConfig parameterizes a FaultStore. Probabilities are per
// operation and are evaluated in a fixed order (errors, then flips/torn,
// then latency) against a single deterministic draw, so a given seed
// always injects the same faults at the same operations.
type FaultConfig struct {
	// Seed seeds the deterministic fault RNG.
	Seed int64
	// ReadErr is the probability a read fails transiently.
	ReadErr float64
	// WriteErr is the probability a mutation fails transiently.
	WriteErr float64
	// Flip is the probability a read returns (and persists) a single
	// flipped bit.
	Flip float64
	// Torn is the probability a multi-block mutation is torn: a prefix is
	// applied, then the operation fails permanently.
	Torn float64
	// Latency is the probability an operation sleeps for LatencyDur.
	Latency float64
	// LatencyDur is the injected delay (default 1ms when Latency > 0).
	LatencyDur time.Duration
	// Schedule maps operation numbers (0-based, counted across the whole
	// store) to forced faults, overriding the probabilistic draw. Use it
	// to place a fault deterministically, e.g. a torn write at the known
	// operation index of a page rewrite.
	Schedule map[int]FaultKind
}

// FaultStore wraps any BlockStore and injects faults into its
// operations: transient read/write errors, persisted bit-flips, torn
// multi-block writes, and latency spikes, chosen deterministically from
// the seed (plus an optional explicit schedule). It implements
// BlockStore, so it slots between the Store layer and a real backend
// and the backend conformance suite runs against it.
type FaultStore struct {
	inner BlockStore

	mu       sync.Mutex
	cfg      FaultConfig
	rng      *rand.Rand
	enabled  bool
	ops      int
	injected map[FaultKind]int
}

// NewFaultStore wraps inner with fault injection enabled under cfg.
func NewFaultStore(inner BlockStore, cfg FaultConfig) *FaultStore {
	if cfg.Latency > 0 && cfg.LatencyDur == 0 {
		cfg.LatencyDur = time.Millisecond
	}
	return &FaultStore{
		inner:    inner,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		enabled:  true,
		injected: make(map[FaultKind]int),
	}
}

// SetEnabled turns injection on or off (the op counter keeps running, so
// scheduled faults stay aligned with operation numbers).
func (fs *FaultStore) SetEnabled(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.enabled = on
}

// SetConfig replaces the fault configuration and reseeds the RNG; the
// operation counter and injection tallies are preserved.
func (fs *FaultStore) SetConfig(cfg FaultConfig) {
	if cfg.Latency > 0 && cfg.LatencyDur == 0 {
		cfg.LatencyDur = time.Millisecond
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cfg = cfg
	fs.rng = rand.New(rand.NewSource(cfg.Seed))
}

// Ops returns the number of operations seen so far.
func (fs *FaultStore) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Injected returns a copy of the per-kind injection tallies.
func (fs *FaultStore) Injected() map[FaultKind]int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[FaultKind]int, len(fs.injected))
	for k, v := range fs.injected {
		out[k] = v
	}
	return out
}

// InjectedTotal returns the total number of injected faults.
func (fs *FaultStore) InjectedTotal() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, v := range fs.injected {
		n += v
	}
	return n
}

// decide advances the operation counter and picks the fault (if any) for
// this operation, together with extra random draws needed to apply it.
func (fs *FaultStore) decide(read bool) (kind FaultKind, a, b int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op := fs.ops
	fs.ops++
	if !fs.enabled {
		return FaultNone, 0, 0
	}
	if k, ok := fs.cfg.Schedule[op]; ok {
		fs.injected[k]++
		return k, fs.rng.Intn(1 << 20), fs.rng.Intn(1 << 20)
	}
	r := fs.rng.Float64()
	pick := func(k FaultKind, p float64) bool {
		if r < p {
			kind = k
			return true
		}
		r -= p
		return false
	}
	if read {
		_ = pick(FaultReadErr, fs.cfg.ReadErr) ||
			pick(FaultFlip, fs.cfg.Flip) ||
			pick(FaultLatency, fs.cfg.Latency)
	} else {
		_ = pick(FaultWriteErr, fs.cfg.WriteErr) ||
			pick(FaultTorn, fs.cfg.Torn) ||
			pick(FaultLatency, fs.cfg.Latency)
	}
	if kind == FaultNone {
		return FaultNone, 0, 0
	}
	fs.injected[kind]++
	return kind, fs.rng.Intn(1 << 20), fs.rng.Intn(1 << 20)
}

// latency sleeps for the configured injection delay.
func (fs *FaultStore) latency() {
	fs.mu.Lock()
	d := fs.cfg.LatencyDur
	fs.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// Config returns the inner store's hardware parameters.
func (fs *FaultStore) Config() Config { return fs.inner.Config() }

// Create creates (or truncates) the named file on the inner store.
func (fs *FaultStore) Create(name string) (BlockFile, error) {
	bf, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, bf: bf}, nil
}

// Lookup returns the named file, or nil if none exists.
func (fs *FaultStore) Lookup(name string) BlockFile {
	bf := fs.inner.Lookup(name)
	if bf == nil {
		return nil
	}
	return &faultFile{fs: fs, bf: bf}
}

// Names returns the inner store's file names.
func (fs *FaultStore) Names() []string { return fs.inner.Names() }

// Remove forwards to the inner store without an injection point:
// removal is a maintenance operation, not part of the faulted I/O path,
// and skipping the draw keeps scheduled fault indices stable.
func (fs *FaultStore) Remove(name string) error { return fs.inner.Remove(name) }

// Sync flushes the inner store.
func (fs *FaultStore) Sync() error { return fs.inner.Sync() }

// Close closes the inner store.
func (fs *FaultStore) Close() error { return fs.inner.Close() }

// faultFile wraps one BlockFile with the store's fault decisions.
type faultFile struct {
	fs *FaultStore
	bf BlockFile
}

// Name returns the file name.
func (f *faultFile) Name() string { return f.bf.Name() }

// Blocks returns the current length of the file in blocks.
func (f *faultFile) Blocks() int { return f.bf.Blocks() }

// Bytes returns the size of the file in bytes.
func (f *faultFile) Bytes() int { return f.bf.Bytes() }

// ReadBlocks reads through to the inner file, possibly failing
// transiently, flipping (and persisting) one bit, or sleeping first.
func (f *faultFile) ReadBlocks(pos, nblocks int) ([]byte, error) {
	kind, a, b := f.fs.decide(true)
	switch kind {
	case FaultReadErr:
		return nil, fmt.Errorf("fault: injected read error on %s[%d,+%d): %w", f.Name(), pos, nblocks, ErrTransient)
	case FaultLatency:
		f.fs.latency()
	}
	data, err := f.bf.ReadBlocks(pos, nblocks)
	if err != nil || kind != FaultFlip || len(data) == 0 {
		return data, err
	}
	bs := f.fs.inner.Config().BlockSize
	blk := a % nblocks
	bit := b % (bs * 8)
	corrupted := append([]byte(nil), data...)
	corrupted[blk*bs+bit/8] ^= 1 << uint(bit%8)
	// Persist the flip so the corruption is at rest: later reads (and a
	// scrub) see the same damaged byte. This goes straight to the inner
	// file, beneath any checksum maintenance in the layers above.
	_ = f.bf.WriteBlocks(pos+blk, corrupted[blk*bs:(blk+1)*bs])
	return corrupted, nil
}

// Append appends through to the inner file. A transient write error
// applies nothing; a torn fault appends only a prefix of the blocks and
// fails permanently.
func (f *faultFile) Append(p []byte) (pos, nblocks int, err error) {
	bs := f.fs.inner.Config().BlockSize
	want := (len(p) + bs - 1) / bs
	if want == 0 {
		want = 1
	}
	kind, a, _ := f.fs.decide(false)
	switch kind {
	case FaultWriteErr:
		return 0, 0, fmt.Errorf("fault: injected append error on %s: %w", f.Name(), ErrTransient)
	case FaultLatency:
		f.fs.latency()
	case FaultTorn:
		if want >= 2 {
			keep := 1 + a%(want-1) // 1..want-1 blocks survive
			buf := make([]byte, keep*bs)
			copy(buf, p)
			if _, _, aerr := f.bf.Append(buf); aerr != nil {
				return 0, 0, aerr
			}
			return 0, 0, fmt.Errorf("fault: torn append on %s: %d of %d blocks written", f.Name(), keep, want)
		}
	}
	return f.bf.Append(p)
}

// WriteBlocks writes through to the inner file; torn faults apply a
// prefix and fail permanently, transient errors apply nothing.
func (f *faultFile) WriteBlocks(pos int, data []byte) error {
	bs := f.fs.inner.Config().BlockSize
	want := len(data) / bs
	kind, a, _ := f.fs.decide(false)
	switch kind {
	case FaultWriteErr:
		return fmt.Errorf("fault: injected write error on %s[%d]: %w", f.Name(), pos, ErrTransient)
	case FaultLatency:
		f.fs.latency()
	case FaultTorn:
		if want >= 2 {
			keep := 1 + a%(want-1)
			if werr := f.bf.WriteBlocks(pos, data[:keep*bs]); werr != nil {
				return werr
			}
			return fmt.Errorf("fault: torn write on %s[%d]: %d of %d blocks written", f.Name(), pos, keep, want)
		}
	}
	return f.bf.WriteBlocks(pos, data)
}

// Truncate forwards to the inner file. A transient write error applies
// nothing; torn faults do not apply (a truncate either moves the size or
// does not — there is no partial prefix to tear).
func (f *faultFile) Truncate(nblocks int) error {
	kind, _, _ := f.fs.decide(false)
	switch kind {
	case FaultWriteErr:
		return fmt.Errorf("fault: injected truncate error on %s: %w", f.Name(), ErrTransient)
	case FaultLatency:
		f.fs.latency()
	}
	return f.bf.Truncate(nblocks)
}

// SetContents rewrites through to the inner file; a torn fault leaves
// only a prefix of the new content, a transient error applies nothing.
func (f *faultFile) SetContents(p []byte) error {
	bs := f.fs.inner.Config().BlockSize
	want := (len(p) + bs - 1) / bs
	kind, a, _ := f.fs.decide(false)
	switch kind {
	case FaultWriteErr:
		return fmt.Errorf("fault: injected rewrite error on %s: %w", f.Name(), ErrTransient)
	case FaultLatency:
		f.fs.latency()
	case FaultTorn:
		if want >= 2 {
			keep := 1 + a%(want-1)
			buf := make([]byte, keep*bs)
			copy(buf, p)
			if serr := f.bf.SetContents(buf); serr != nil {
				return serr
			}
			return fmt.Errorf("fault: torn rewrite of %s: %d of %d blocks written", f.Name(), keep, want)
		}
	}
	return f.bf.SetContents(p)
}
