package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// FileStore is the os.File-backed backend: every logical block file is a
// real file inside one directory, kept block-aligned at all times, so an
// index built in one process can be reopened and queried in another.
// Reads use ReadAt and are safe for concurrent sessions; the Config's
// time parameters keep driving the cost model and page scheduling (the
// accounting then describes the modeled device, not the host disk).
type FileStore struct {
	cfg Config
	dir string

	mu    sync.Mutex
	files map[string]*osFile
}

// OpenFileBackend opens (creating if needed) the directory dir as a
// block store. Existing regular files are adopted as block files; a file
// whose size is not a multiple of the block size is rejected as corrupt.
func OpenFileBackend(dir string, cfg Config) (*FileStore, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("store: BlockSize must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	fsS := &FileStore{cfg: cfg, dir: dir, files: make(map[string]*osFile)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan dir: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if _, err := fsS.open(e.Name(), false); err != nil {
			fsS.Close()
			return nil, err
		}
	}
	return fsS, nil
}

// Dir returns the backing directory.
func (d *FileStore) Dir() string { return d.dir }

// Config returns the modeled hardware parameters.
func (d *FileStore) Config() Config { return d.cfg }

// validName rejects names that would escape the store directory.
func validName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || filepath.Base(name) != name {
		return fmt.Errorf("store: invalid file name %q", name)
	}
	return nil
}

// open opens (or creates/truncates) one backing file and registers it.
func (d *FileStore) open(name string, truncate bool) (*osFile, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		if truncate {
			if err := f.Truncate(0); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	flags := os.O_RDWR | os.O_CREATE
	if truncate {
		flags |= os.O_TRUNC
	}
	h, err := os.OpenFile(filepath.Join(d.dir, name), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	info, err := h.Stat()
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("store: stat %s: %w", name, err)
	}
	if info.Size()%int64(d.cfg.BlockSize) != 0 {
		h.Close()
		return nil, fmt.Errorf("store: %s is %d bytes, not a multiple of the %d-byte block size (corrupt or wrong -block config?)",
			name, info.Size(), d.cfg.BlockSize)
	}
	f := &osFile{d: d, name: name, h: h, size: info.Size()}
	d.files[name] = f
	return f, nil
}

// Create creates (or truncates) the named file.
func (d *FileStore) Create(name string) (BlockFile, error) {
	f, err := d.open(name, true)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Lookup returns the named file, or nil if none exists.
func (d *FileStore) Lookup(name string) BlockFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f
	}
	return nil
}

// Names returns the file names in sorted order.
func (d *FileStore) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Remove deletes the named file from the directory (a no-op when it
// does not exist). The removal is made durable by the next Sync's
// directory fsync.
func (d *FileStore) Remove(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil
	}
	if err := f.h.Close(); err != nil {
		return fmt.Errorf("store: close %s for removal: %w", name, err)
	}
	if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
		return fmt.Errorf("store: remove %s: %w", name, err)
	}
	delete(d.files, name)
	return nil
}

// Sync flushes every backing file — and the directory itself, so that
// newly created files are durable too — to stable storage. Every file
// is attempted even after a failure, and all failures are reported
// (joined): a partial sync report must name every file whose
// durability is in doubt, not just the first.
func (d *FileStore) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var errs []error
	for _, name := range d.sortedNamesLocked() {
		f := d.files[name]
		if err := f.h.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("store: sync %s: %w", f.name, err))
		}
	}
	if err := d.syncDirLocked(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// sortedNamesLocked returns the file names in sorted order so error
// aggregation is deterministic. Callers hold d.mu.
func (d *FileStore) sortedNamesLocked() []string {
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// syncDirLocked fsyncs the store directory, making file creations and
// renames durable. Filesystems that reject directory fsync (it is
// optional on some platforms) are tolerated.
func (d *FileStore) syncDirLocked() error {
	h, err := os.Open(d.dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer h.Close()
	if err := h.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// Close syncs and closes every backing file (and the directory entry
// metadata), so mutations against a reopened store are durable once
// Close returns.
func (d *FileStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var errs []error
	for _, name := range d.sortedNamesLocked() {
		f := d.files[name]
		if err := f.h.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("store: sync %s: %w", f.name, err))
		}
		if err := f.h.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store: close %s: %w", f.name, err))
		}
	}
	if err := d.syncDirLocked(); err != nil {
		errs = append(errs, err)
	}
	d.files = make(map[string]*osFile)
	return errors.Join(errs...)
}

// osFile is one block-aligned file on the host filesystem. The mutex
// guards the logical size; data access goes through ReadAt/WriteAt,
// which are safe for concurrent use.
type osFile struct {
	d    *FileStore
	name string
	h    *os.File

	mu   sync.Mutex
	size int64 // always a multiple of BlockSize
}

// Name returns the file name.
func (f *osFile) Name() string { return f.name }

// Blocks returns the current length of the file in blocks.
func (f *osFile) Blocks() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.size) / f.d.cfg.BlockSize
}

// Bytes returns the size of the file in bytes (always block-aligned).
func (f *osFile) Bytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.size)
}

// ReadBlocks reads nblocks blocks at pos into a fresh buffer.
func (f *osFile) ReadBlocks(pos, nblocks int) ([]byte, error) {
	bs := f.d.cfg.BlockSize
	f.mu.Lock()
	size := f.size
	f.mu.Unlock()
	if pos < 0 || nblocks <= 0 || int64(pos+nblocks)*int64(bs) > size {
		return nil, fmt.Errorf("file: read past end of %s: pos=%d n=%d blocks=%d",
			f.name, pos, nblocks, size/int64(bs))
	}
	buf := make([]byte, nblocks*bs)
	if _, err := f.h.ReadAt(buf, int64(pos)*int64(bs)); err != nil {
		return nil, fmt.Errorf("file: read %s: %w", f.name, err)
	}
	return buf, nil
}

// Append writes p at the end of the file, padded to a block boundary.
// A p of whole blocks is written as is; any other is copied into a
// zero-padded buffer first.
func (f *osFile) Append(p []byte) (pos, nblocks int, err error) {
	bs := f.d.cfg.BlockSize
	f.mu.Lock()
	defer f.mu.Unlock()
	pos = int(f.size) / bs
	nblocks = (len(p) + bs - 1) / bs
	if nblocks == 0 {
		nblocks = 1 // even an empty page occupies one block
	}
	buf := p
	if len(p) != nblocks*bs {
		buf = make([]byte, nblocks*bs)
		copy(buf, p)
	}
	if _, err := f.h.WriteAt(buf, f.size); err != nil {
		return 0, 0, fmt.Errorf("file: append to %s: %w", f.name, err)
	}
	f.size += int64(nblocks) * int64(bs)
	return pos, nblocks, nil
}

// WriteBlocks overwrites existing blocks starting at pos with data.
func (f *osFile) WriteBlocks(pos int, data []byte) error {
	bs := f.d.cfg.BlockSize
	if len(data)%bs != 0 {
		return fmt.Errorf("file: WriteBlocks data not block-aligned (%d bytes)", len(data))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if pos < 0 || int64(pos)*int64(bs)+int64(len(data)) > f.size {
		return fmt.Errorf("file: WriteBlocks past end of %s", f.name)
	}
	if _, err := f.h.WriteAt(data, int64(pos)*int64(bs)); err != nil {
		return fmt.Errorf("file: write %s: %w", f.name, err)
	}
	return nil
}

// Truncate shrinks the file to nblocks blocks; at or past the current
// length it is a no-op.
func (f *osFile) Truncate(nblocks int) error {
	if nblocks < 0 {
		return fmt.Errorf("file: truncate %s to %d blocks", f.name, nblocks)
	}
	bs := f.d.cfg.BlockSize
	f.mu.Lock()
	defer f.mu.Unlock()
	want := int64(nblocks) * int64(bs)
	if want >= f.size {
		return nil
	}
	if err := f.h.Truncate(want); err != nil {
		return fmt.Errorf("file: truncate %s: %w", f.name, err)
	}
	f.size = want
	return nil
}

// SetContents replaces the whole file with p, padded to a block boundary.
// The new bytes overwrite the old from block 0 before the file shrinks
// to their length: a concurrent reader of a file whose contents never
// shrink (the directory under inserts) never finds it empty or short.
func (f *osFile) SetContents(p []byte) error {
	bs := f.d.cfg.BlockSize
	nblocks := (len(p) + bs - 1) / bs
	buf := make([]byte, nblocks*bs)
	copy(buf, p)
	f.mu.Lock()
	_, err := f.h.WriteAt(buf, 0)
	if end := int64(len(buf)); err == nil && end > f.size {
		f.size = end
	}
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("file: write %s: %w", f.name, err)
	}
	return f.Truncate(nblocks)
}
