// Package store is the storage layer of the reproduction: it separates
// the *cost accounting* of the paper's evaluation (seeks, transferred
// blocks, CPU charges — package-level Session) from the *byte storage*
// underneath (the BlockStore/BlockFile backend contract).
//
// Two backends are provided:
//
//   - SimStore: the in-memory simulator of the paper's testbed hardware
//     (HP 9000/780; see DefaultConfig). This is the backend every figure
//     experiment runs on; with the cache disabled its accounting is
//     bit-identical to the original disk simulator.
//   - FileStore: a real os.File-backed store that persists the pages of
//     an index to a directory with block-aligned I/O, so a tree built in
//     one process can be reopened and queried in another.
//
// Between sessions and the backend sits an optional shared BufferPool
// (a block cache with a configurable byte budget and two LRU lists, one
// for files marked EvictFirst, evicted first): concurrent
// queries share hot directory and quantized pages, cache hits charge
// zero seek/transfer time, which makes the paper's cost model
// cache-aware, and writes through a File fill the pool with the blocks
// they wrote, so a read after a write finds them resident.
//
// Files are append-only sequences of block-aligned pages. A Session is a
// single query's view of the store: it tracks the head position, so that
// a read adjacent to the previous one costs only transfer time while any
// other read costs an additional seek. Sessions carry a sticky error
// instead of panicking on I/O failure: the first failed operation poisons
// the session, every later operation returns that error, and Err exposes
// it for boundary checks.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config holds the hardware parameters of the (simulated or modeled)
// machine. All time quantities are in seconds. For the file-backed store
// the time parameters still drive the cost model and page scheduling;
// the accounting then describes the modeled device, not the host disk.
type Config struct {
	// BlockSize is the disk block size in bytes. Pages are block-aligned.
	BlockSize int
	// Seek is the cost of one random seek, in seconds.
	Seek float64
	// Xfer is the cost of transferring one block, in seconds.
	Xfer float64
	// DistCPU is the CPU cost, per dimension, of one exact distance
	// computation, in seconds.
	DistCPU float64
	// ApproxCPU is the CPU cost, per dimension, of decoding and bounding
	// one quantized approximation, in seconds.
	ApproxCPU float64
}

// DefaultConfig returns parameters calibrated to the paper's late-1990s
// testbed (HP 9000/780): 4 KiB blocks, 10 ms average seek, ~3.4 MB/s
// effective sequential transfer, and per-dimension CPU costs of a
// ~180 MHz PA-RISC workstation. The transfer rate is backed out of the
// paper's own measurements (a 32 MB sequential scan takes ~13 s in
// Fig. 8/9), giving a seek:transfer ratio of ~8:1, which is what the
// paper's seek-vs-over-read trade-off (Section 2) is calibrated against.
func DefaultConfig() Config {
	return Config{
		BlockSize: 4096,
		Seek:      10e-3,
		Xfer:      1.2e-3,
		DistCPU:   100e-9,
		ApproxCPU: 120e-9,
	}
}

// OverreadHorizon returns v = Seek/Xfer, the maximum number of blocks worth
// over-reading instead of seeking (Section 2 of the paper).
func (c Config) OverreadHorizon() int {
	if c.Xfer <= 0 {
		return 0
	}
	return int(c.Seek / c.Xfer)
}

// Blocks returns the number of blocks needed to store n bytes.
func (c Config) Blocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + c.BlockSize - 1) / c.BlockSize
}

// Stats accumulates the simulated cost of one or more operations.
type Stats struct {
	// Seeks counts random seeks.
	Seeks int
	// BlocksRead counts transferred blocks.
	BlocksRead int
	// Reads counts read operations (contiguous runs).
	Reads int
	// CPUSeconds accumulates charged CPU time.
	CPUSeconds float64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Seeks += o.Seeks
	s.BlocksRead += o.BlocksRead
	s.Reads += o.Reads
	s.CPUSeconds += o.CPUSeconds
}

// Time returns the total simulated time in seconds under cfg.
func (s Stats) Time(cfg Config) float64 {
	return float64(s.Seeks)*cfg.Seek + float64(s.BlocksRead)*cfg.Xfer + s.CPUSeconds
}

// String formats the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("seeks=%d blocks=%d reads=%d cpu=%.6fs", s.Seeks, s.BlocksRead, s.Reads, s.CPUSeconds)
}

// BlockFile is the backend contract for one append-only, block-aligned
// file. Implementations provide raw byte storage only; head tracking,
// cost charging, caching and error stickiness all live in the
// Store/Session layer above, so a backend never needs to know how its
// bytes are being billed.
type BlockFile interface {
	// Name returns the file name (unique within its store).
	Name() string
	// Blocks returns the current length of the file in blocks.
	Blocks() int
	// Bytes returns the size of the file in bytes (always block-aligned).
	Bytes() int
	// ReadBlocks returns the raw content of nblocks blocks starting at
	// block pos. The returned slice may alias internal storage; callers
	// must not mutate it.
	ReadBlocks(pos, nblocks int) ([]byte, error)
	// Append writes p at the end of the file, padded to a block boundary,
	// and returns the starting block position and the number of blocks
	// written. Even an empty p occupies one block.
	Append(p []byte) (pos, nblocks int, err error)
	// WriteBlocks overwrites existing blocks starting at pos with data,
	// which must be block-aligned in length and fit within the current
	// file extent.
	WriteBlocks(pos int, data []byte) error
	// SetContents replaces the whole file with p, padded to a block
	// boundary. An empty p truncates the file to zero blocks.
	SetContents(p []byte) error
	// Truncate discards blocks from the tail, shrinking the file to
	// nblocks blocks. Truncating at or past the current length is a
	// no-op; negative counts are rejected.
	Truncate(nblocks int) error
}

// BlockStore is the backend contract for a set of named block files.
type BlockStore interface {
	// Config returns the store's hardware parameters.
	Config() Config
	// Create creates (or truncates) the named file.
	Create(name string) (BlockFile, error)
	// Lookup returns the named file, or nil if none exists.
	Lookup(name string) BlockFile
	// Names returns the file names in deterministic order.
	Names() []string
	// Remove deletes the named file. Removing a missing file is a no-op.
	Remove(name string) error
	// Sync flushes durable backends; it is a no-op for the simulator.
	Sync() error
	// Close releases backend resources. The store must not be used after.
	Close() error
}

// Store mediates all access to a backend: it hands out canonical *File
// wrappers (which route writes through the buffer pool) and
// per-query Sessions (which route reads through the shared buffer pool,
// when one is attached). A Store carries a sticky write error: the first
// failed mutation poisons it, so construction code can write freely and
// check Err once at the end.
type Store struct {
	backend BlockStore
	pool    *BufferPool

	checked atomic.Bool // checksums enabled (see checksum.go)

	mu    sync.Mutex
	files map[string]*File
	err   error
	retry RetryPolicy // bounded backoff for transient backend failures
}

// Wrap layers Store/Session mediation over any backend.
func Wrap(backend BlockStore) *Store {
	if backend.Config().BlockSize <= 0 {
		panic("store: BlockSize must be positive")
	}
	return &Store{backend: backend, files: make(map[string]*File), retry: DefaultRetryPolicy()}
}

// NewSim creates a store over a fresh in-memory simulator backend — the
// configuration every figure experiment runs on.
func NewSim(cfg Config) *Store {
	return Wrap(NewSimStore(cfg))
}

// OpenFileStore creates a store over the os.File-backed backend rooted
// at dir (created if absent; existing block files are reopened).
func OpenFileStore(dir string, cfg Config) (*Store, error) {
	b, err := OpenFileBackend(dir, cfg)
	if err != nil {
		return nil, err
	}
	return Wrap(b), nil
}

// Config returns the store's hardware parameters.
func (s *Store) Config() Config { return s.backend.Config() }

// Backend returns the underlying block store.
func (s *Store) Backend() BlockStore { return s.backend }

// SetCache attaches a shared buffer pool with the given byte budget to
// the store (budget <= 0 detaches any pool); see BufferPool for its two
// LRU lists. All sessions created afterwards read through it; cache hits
// charge zero seek/transfer.
// Every File mutation from then on writes through it, so blocks written
// after the pool is attached are resident until evicted; blocks written
// before enter it when a session first reads them.
func (s *Store) SetCache(budgetBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if budgetBytes <= 0 {
		s.pool = nil
		return
	}
	s.pool = NewBufferPool(budgetBytes)
}

// Pool returns the attached buffer pool, or nil if caching is disabled.
func (s *Store) Pool() *BufferPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// NewFile creates (or truncates) a file on the backend.
func (s *Store) NewFile(name string) (*File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bf, err := s.backend.Create(name)
	if err != nil {
		return nil, s.failLocked(err)
	}
	if s.pool != nil {
		s.pool.InvalidateFile(name)
	}
	f := &File{st: s, bf: bf}
	if s.checked.Load() {
		if err := s.attachSumsLocked(f, true); err != nil {
			delete(s.files, name)
			return nil, err
		}
	}
	s.files[name] = f
	return f, nil
}

// File returns the named file, or nil if none exists. The wrapper is
// canonical: repeated calls return the same *File. With checksums on, a
// wrapper is handed out and cached only once its sums are attached: a
// file whose sidecar fails to load is nil on every lookup (the store's
// sticky error names the sidecar), never served unverified.
func (s *Store) File(name string) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[name]
	if f == nil {
		bf := s.backend.Lookup(name)
		if bf == nil {
			return nil
		}
		f = &File{st: s, bf: bf}
	}
	if s.checked.Load() {
		if err := s.attachSumsLocked(f, false); err != nil {
			return nil
		}
	}
	s.files[name] = f
	return f
}

// TotalBlocks returns the number of data blocks across all files
// (checksum sidecars excluded, so enabling checksums does not change
// the reported index size).
func (s *Store) TotalBlocks() int {
	var n int
	for _, name := range s.backend.Names() {
		if IsChecksumFile(name) {
			continue
		}
		if bf := s.backend.Lookup(name); bf != nil {
			n += bf.Blocks()
		}
	}
	return n
}

// Remove deletes the named file (and its checksum sidecar, when one
// exists) from the backend, dropping the canonical wrapper and any
// cached frames. Removing a missing file is a no-op. Stale *File
// wrappers held by callers become invalid; removal is a maintenance
// operation for files no snapshot references anymore (old generations
// after a compaction swap).
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	err := s.backend.Remove(name)
	// After the backend change, so a racing fill of the old bytes is
	// discarded rather than cached.
	if s.pool != nil {
		s.pool.InvalidateFile(name)
	}
	if err != nil {
		return s.failLocked(fmt.Errorf("store: remove %s: %w", name, err))
	}
	if !IsChecksumFile(name) {
		side := name + ChecksumSuffix
		delete(s.files, side)
		if err := s.backend.Remove(side); err != nil {
			return s.failLocked(fmt.Errorf("store: remove %s: %w", side, err))
		}
	}
	return nil
}

// SetRetryPolicy replaces the bounded-backoff policy applied to
// transient backend failures. Sessions capture the policy at creation
// (and Reset), so set it before serving.
func (s *Store) SetRetryPolicy(p RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retry = p
}

// retryPolicy returns the current retry policy.
func (s *Store) retryPolicy() RetryPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retry
}

// NewSession starts a fresh session with the head in an undefined
// position (the first read always seeks).
func (s *Store) NewSession() *Session {
	return &Session{st: s, pool: s.Pool(), retry: s.retryPolicy()}
}

// Err returns the store's sticky write error: the first mutation that
// failed, or nil. Construction code writes freely and checks once here.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail records err as the store's sticky error (first one wins) and
// returns it.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failLocked(err)
}

func (s *Store) failLocked(err error) error {
	if s.err == nil {
		s.err = err
	}
	return err
}

// Sync flushes durable backends.
func (s *Store) Sync() error { return s.backend.Sync() }

// Close flushes and releases the backend. The store must not be used
// afterwards.
func (s *Store) Close() error { return s.backend.Close() }

// File is the mediated view of one backend file. All mutations pass
// through it so the shared buffer pool and the checksum sidecar (when
// enabled) stay write-through consistent with the backend;
// transient backend failures are retried under the store's RetryPolicy,
// and mutation failures are additionally recorded as the store's sticky
// error, so bulk writers may check once instead of at every call.
type File struct {
	st    *Store
	bf    BlockFile
	sums  *sumTable   // per-block CRC32C mirror; nil when checksums are off
	first atomic.Bool // the file's frames go on the pool's evict-first list

	// rw is held by SetContents and Truncate across the change and the
	// sum update, by ReadRaw across the read and the check, so no read
	// checks one version's bytes against the other's sums.
	rw sync.RWMutex
}

// EvictFirst sends the blocks this file brings into the buffer pool from
// now on to the pool's evict-first list: while that list holds any
// frame, the pool evicts only from it. Mark a file whose blocks are read
// rarely and once (the IQ-tree's exact pages), so they do not displace
// the blocks every read scans.
func (f *File) EvictFirst() { f.first.Store(true) }

// Forget drops the pooled frames of blocks [pos, pos+nblocks) and no
// other. It is for a page version no new reader will ask for (a
// copy-on-write page superseded by a newer one): the bytes stay on the
// backend, so a reader that still asks just misses.
func (f *File) Forget(pos, nblocks int) {
	if pl := f.st.Pool(); pl != nil {
		pl.forget(f.Name(), pos, nblocks)
	}
}

// mutate runs op with bounded retries on transient failures. Transient
// errors promise that nothing was applied, so re-running op is safe;
// permanent errors (including torn writes) return immediately.
func (f *File) mutate(op func() error) error {
	pol := f.st.retryPolicy()
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if !IsTransient(err) || attempt >= pol.MaxRetries {
			if IsTransient(err) {
				metricRetriesExhausted.Inc()
			}
			return err
		}
		metricWriteRetries.Inc()
		if d := pol.delay(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// verifyBlocks checks data read from [pos, pos+nblocks) against the
// file's checksum sidecar; a no-op when checksums are off. On a checked
// store a data file whose sums are not attached (its sidecar failed to
// load) serves nothing, so a wrapper held from before EnableChecksums
// never reads unverified bytes.
func (f *File) verifyBlocks(pos int, data []byte, nblocks int) error {
	if f.sums != nil {
		return f.sums.verify(f.Name(), pos, data, nblocks)
	}
	if f.st.checked.Load() && !keepsNoSums(f.Name()) {
		return fmt.Errorf("store: %s is unverified: its checksum sidecar %s is not attached", f.Name(), f.Name()+ChecksumSuffix)
	}
	return nil
}

// Name returns the file name.
func (f *File) Name() string { return f.bf.Name() }

// Blocks returns the current length of the file in blocks.
func (f *File) Blocks() int { return f.bf.Blocks() }

// Bytes returns the size of the file in bytes (always block-aligned).
func (f *File) Bytes() int { return f.bf.Bytes() }

// failMutation records a failed mutation: the file's frames are dropped
// from the pool, because the backend may hold any part of the attempted
// write (a torn rewrite) and the sidecar may not cover it, so only a
// verified backend read may serve the file's blocks again. The error
// becomes the store's sticky error.
func (f *File) failMutation(err error) error {
	if pl := f.st.Pool(); pl != nil {
		pl.InvalidateFile(f.Name())
	}
	return f.st.fail(err)
}

// Append writes p at the end of the file, padded to a block boundary, and
// returns the starting block position and the number of blocks written.
// Once the checksum sidecar (when enabled) records them, the written
// blocks, zero-padded tail included, enter the buffer pool as the most
// recently used; the blocks before pos are untouched.
func (f *File) Append(p []byte) (pos, nblocks int, err error) {
	err = f.mutate(func() error {
		pos, nblocks, err = f.bf.Append(p)
		return err
	})
	if err != nil {
		return 0, 0, f.failMutation(fmt.Errorf("store: append to %s: %w", f.Name(), err))
	}
	if f.sums != nil {
		if serr := f.sums.recordAppend(pos, p, nblocks); serr != nil {
			return 0, 0, f.failMutation(serr)
		}
	}
	if pl := f.st.Pool(); pl != nil {
		pl.write(f.Name(), f.first.Load(), pos, pos, pos+nblocks, f.st.Config().BlockSize, p)
	}
	return pos, nblocks, nil
}

// SetContents replaces the whole file with p, padded to a block boundary.
// An empty p truncates the file to zero blocks. Once the sidecar records
// the new sums, the buffer pool holds every new block (overwriting the
// frames of the old contents) and no frame past the new end.
func (f *File) SetContents(p []byte) error {
	f.rw.Lock()
	defer f.rw.Unlock()
	old := f.Blocks()
	if err := f.mutate(func() error { return f.bf.SetContents(p) }); err != nil {
		return f.failMutation(fmt.Errorf("store: rewrite of %s: %w", f.Name(), err))
	}
	if f.sums != nil {
		if serr := f.sums.recordContents(p, f.Blocks()); serr != nil {
			return f.failMutation(serr)
		}
	}
	if pl := f.st.Pool(); pl != nil {
		pl.write(f.Name(), f.first.Load(), old, 0, f.Blocks(), f.st.Config().BlockSize, p)
	}
	return nil
}

// Truncate shrinks the file to nblocks blocks, dropping the recorded
// checksums and the pooled frames of the discarded tail; the frames of
// the surviving prefix stay resident. Used by generation-swap compaction
// and WAL tail recovery; truncating at or past the current length is a
// no-op.
func (f *File) Truncate(nblocks int) error {
	f.rw.Lock()
	defer f.rw.Unlock()
	old := f.Blocks()
	if err := f.mutate(func() error { return f.bf.Truncate(nblocks) }); err != nil {
		return f.failMutation(fmt.Errorf("store: truncate %s: %w", f.Name(), err))
	}
	if f.sums != nil {
		if serr := f.sums.truncateTo(nblocks); serr != nil {
			return f.failMutation(serr)
		}
	}
	if pl := f.st.Pool(); pl != nil && nblocks < old {
		pl.write(f.Name(), f.first.Load(), old, nblocks, nblocks, f.st.Config().BlockSize, nil)
	}
	return nil
}

// ReadRaw returns the raw content of nblocks blocks at pos without
// charging any cost and without touching the cache, verified against
// the checksum sidecar when checksums are enabled. It is a session's
// backend read, and serves superblock reads, invariant checks, tests
// and debugging; query code must go through a Session.
func (f *File) ReadRaw(pos, nblocks int) ([]byte, error) {
	f.rw.RLock()
	defer f.rw.RUnlock()
	if pos < 0 || nblocks <= 0 || pos+nblocks > f.Blocks() {
		return nil, fmt.Errorf("store: raw read past end of %s: pos=%d n=%d blocks=%d",
			f.Name(), pos, nblocks, f.Blocks())
	}
	data, err := f.bf.ReadBlocks(pos, nblocks)
	if err != nil {
		return nil, err
	}
	if verr := f.verifyBlocks(pos, data, nblocks); verr != nil {
		return nil, verr
	}
	return data, nil
}
