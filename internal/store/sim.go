package store

import (
	"fmt"
	"sort"
	"sync"
)

// SimStore is the in-memory simulator backend: the storage hardware of
// the paper's testbed, reduced to append-only byte slices. All cost
// accounting happens in the Session layer; with the cache disabled the
// combination Store+Session+SimStore is behavior-identical to the
// original monolithic disk simulator, so every figure experiment and
// cost calibration keeps producing the same simulated-time series.
type SimStore struct {
	cfg   Config
	mu    sync.Mutex
	files map[string]*SimFile
	order []string
}

// NewSimStore creates a simulator backend with the given hardware
// parameters.
func NewSimStore(cfg Config) *SimStore {
	if cfg.BlockSize <= 0 {
		panic("store: BlockSize must be positive")
	}
	return &SimStore{cfg: cfg, files: make(map[string]*SimFile)}
}

// Config returns the simulated hardware parameters.
func (d *SimStore) Config() Config { return d.cfg }

// Create creates (or truncates) a file. Files occupy disjoint regions;
// moving the head between files always costs a seek.
func (d *SimStore) Create(name string) (BlockFile, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		f.mu.Lock()
		f.data = nil // fresh backing array; stale readers keep their view
		f.mu.Unlock()
		return f, nil
	}
	f := &SimFile{d: d, name: name}
	d.files[name] = f
	d.order = append(d.order, name)
	return f, nil
}

// Lookup returns the named file, or nil if none exists.
func (d *SimStore) Lookup(name string) BlockFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f
	}
	return nil
}

// Names returns the file names in sorted order.
func (d *SimStore) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]string(nil), d.order...)
	sort.Strings(out)
	return out
}

// Remove deletes the named file (a no-op when it does not exist).
// Readers holding aliases into its data keep their bytes.
func (d *SimStore) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return nil
	}
	delete(d.files, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return nil
}

// Sync is a no-op for the simulator.
func (d *SimStore) Sync() error { return nil }

// Close is a no-op for the simulator.
func (d *SimStore) Close() error { return nil }

// SimFile is an append-only, block-aligned in-memory file, safe for
// concurrent readers and writers: a per-file RWMutex guards the slice
// header, and SetContents installs a fresh backing array instead of
// truncating in place, so slices handed out to concurrent readers before
// a rewrite keep their (stale but consistent) bytes — the property the
// copy-on-write index layers rely on.
type SimFile struct {
	d    *SimStore
	name string
	mu   sync.RWMutex
	data []byte
}

// Name returns the file name.
func (f *SimFile) Name() string { return f.name }

// Blocks returns the current length of the file in blocks.
func (f *SimFile) Blocks() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.data) / f.d.cfg.BlockSize
}

// Bytes returns the size of the file in bytes (always block-aligned).
func (f *SimFile) Bytes() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.data)
}

// ReadBlocks returns the raw content of nblocks blocks at pos, aliasing
// the internal storage (zero copy). Appends write only past the end of
// the file (into spare capacity no reader was handed, or a new array),
// truncation drops the spare capacity, and rewrites install fresh
// arrays, so the returned slice stays consistent even if the file is
// mutated after the call.
func (f *SimFile) ReadBlocks(pos, nblocks int) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	bs := f.d.cfg.BlockSize
	if pos < 0 || nblocks <= 0 || (pos+nblocks)*bs > len(f.data) {
		return nil, fmt.Errorf("sim: read past end of %s: pos=%d n=%d blocks=%d", f.name, pos, nblocks, len(f.data)/bs)
	}
	return f.data[pos*bs : (pos+nblocks)*bs : (pos+nblocks)*bs], nil
}

// Append writes p at the end of the file, padded to a block boundary.
func (f *SimFile) Append(p []byte) (pos, nblocks int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	bs := f.d.cfg.BlockSize
	pos = len(f.data) / bs
	nblocks = (len(p) + bs - 1) / bs
	if nblocks == 0 {
		nblocks = 1 // even an empty page occupies one block
	}
	f.data = append(f.data, p...)
	f.data = append(f.data, make([]byte, nblocks*bs-len(p))...)
	return pos, nblocks, nil
}

// WriteBlocks overwrites existing blocks starting at pos with data.
func (f *SimFile) WriteBlocks(pos int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	bs := f.d.cfg.BlockSize
	if len(data)%bs != 0 {
		return fmt.Errorf("sim: WriteBlocks data not block-aligned (%d bytes)", len(data))
	}
	if pos < 0 || pos*bs+len(data) > len(f.data) {
		return fmt.Errorf("sim: WriteBlocks past end of %s", f.name)
	}
	// Copy-on-write: readers holding aliases into the old array keep
	// seeing the pre-write bytes.
	fresh := append([]byte(nil), f.data...)
	copy(fresh[pos*bs:], data)
	f.data = fresh
	return nil
}

// Truncate shrinks the file to nblocks blocks; at or past the current
// length it is a no-op. The shortened slice keeps no spare capacity, so
// a later Append moves to a new array instead of overwriting cut bytes
// a reader may still hold.
func (f *SimFile) Truncate(nblocks int) error {
	if nblocks < 0 {
		return fmt.Errorf("sim: truncate %s to %d blocks", f.name, nblocks)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	bs := f.d.cfg.BlockSize
	if nblocks*bs >= len(f.data) {
		return nil
	}
	f.data = f.data[: nblocks*bs : nblocks*bs]
	return nil
}

// SetContents replaces the whole file with p, padded to a block boundary.
func (f *SimFile) SetContents(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	bs := f.d.cfg.BlockSize
	if len(p) == 0 {
		f.data = nil
		return nil
	}
	nblocks := (len(p) + bs - 1) / bs
	fresh := make([]byte, nblocks*bs)
	copy(fresh, p)
	f.data = fresh
	return nil
}
