package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// fileKinds are the groups the storage-boundary metrics are split by.
var fileKinds = []string{"dir", "quant", "exact", "crc", "wal", "ckpt", "meta"}

// fileKind maps a store file name to its kind. Generation-suffixed data
// files keep their base kind; iq.meta and any unrecognised name count as
// "meta".
func fileKind(name string) string {
	switch {
	case strings.HasSuffix(name, store.ChecksumSuffix):
		return "crc"
	case strings.HasPrefix(name, core.CkptBaseName):
		return "ckpt"
	case strings.HasSuffix(name, store.WALSuffix):
		return "wal"
	case strings.HasPrefix(name, core.QFileName):
		return "quant"
	case strings.HasPrefix(name, core.EFileName):
		return "exact"
	case name == core.DirFileName:
		return "dir"
	}
	return "meta"
}

// recStore is the bench's wrapper at the storage boundary, between the
// program's store.Store and the file backend. With a recorder attached
// (the traced pass) it records one span per backend call. With an undo
// log attached (ingest-mixed) it keeps the pre-image of every byte
// changed since the last Sync, so crash can roll the directory back to
// what a power cut would leave on disk.
type recStore struct {
	*store.FileStore
	rec   *recorder // nil: nothing is timed
	shard int       // the shard whose query spans own this store's spans
	undo  *undoLog  // nil: no crash emulation
}

func newRecStore(dir string, rec *recorder, shard int, undo bool) (*recStore, error) {
	fsb, err := store.OpenFileBackend(dir, store.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &recStore{FileStore: fsb, rec: rec, shard: shard}
	if undo {
		s.undo = &undoLog{}
	}
	return s, nil
}

func (s *recStore) wrap(bf store.BlockFile) store.BlockFile {
	return &recFile{BlockFile: bf, s: s, kind: fileKind(bf.Name())}
}

// span records one backend call that started at t0.
func (s *recStore) span(op, kind string, bytes int, t0 int64) {
	s.rec.storeSpan(s.shard, op, kind, int64(bytes), t0)
}

func (s *recStore) Create(name string) (store.BlockFile, error) {
	defer s.undo.lock()()
	s.undo.saveWhole(s.FileStore.Lookup(name), name)
	t0 := s.rec.now()
	bf, err := s.FileStore.Create(name)
	s.span("create", fileKind(name), 0, t0)
	if err != nil {
		return nil, err
	}
	return s.wrap(bf), nil
}

func (s *recStore) Lookup(name string) store.BlockFile {
	bf := s.FileStore.Lookup(name)
	if bf == nil {
		return nil
	}
	return s.wrap(bf)
}

func (s *recStore) Remove(name string) error {
	defer s.undo.lock()()
	s.undo.saveWhole(s.FileStore.Lookup(name), name)
	t0 := s.rec.now()
	err := s.FileStore.Remove(name)
	s.span("remove", fileKind(name), 0, t0)
	return err
}

func (s *recStore) Sync() error {
	defer s.undo.lock()()
	t0 := s.rec.now()
	err := s.FileStore.Sync()
	s.span("sync", "all", 0, t0)
	if err == nil {
		s.undo.clear()
	}
	return err
}

// bytes returns the size of every file of the store.
func (s *recStore) bytes() int64 {
	var n int64
	for _, name := range s.Names() {
		if bf := s.FileStore.Lookup(name); bf != nil {
			n += int64(bf.Bytes())
		}
	}
	return n
}

// crash emulates a power cut: it closes the backend, then rolls every
// byte changed since the last Sync back to its synced content, newest
// change first. The directory is then what a reopening process would
// find after the machine lost power.
func (s *recStore) crash() error {
	defer s.undo.lock()()
	if s.undo.err != nil {
		return fmt.Errorf("crash image: saving a pre-image failed: %w", s.undo.err)
	}
	if err := s.FileStore.Close(); err != nil {
		return err
	}
	for i := len(s.undo.entries) - 1; i >= 0; i-- {
		if err := s.undo.entries[i].apply(s.Dir()); err != nil {
			return err
		}
	}
	s.undo.clear()
	return nil
}

// recFile wraps one backend file; Name, Blocks and Bytes pass through.
type recFile struct {
	store.BlockFile
	s    *recStore
	kind string
}

func (f *recFile) ReadBlocks(pos, nblocks int) ([]byte, error) {
	t0 := f.s.rec.now()
	b, err := f.BlockFile.ReadBlocks(pos, nblocks)
	f.s.span("read", f.kind, len(b), t0)
	return b, err
}

func (f *recFile) Append(p []byte) (pos, nblocks int, err error) {
	defer f.s.undo.lock()()
	f.s.undo.add(undoEntry{name: f.Name(), op: undoTruncate, off: int64(f.BlockFile.Bytes())})
	t0 := f.s.rec.now()
	pos, nblocks, err = f.BlockFile.Append(p)
	f.s.span("append", f.kind, nblocks*f.s.Config().BlockSize, t0)
	return pos, nblocks, err
}

func (f *recFile) WriteBlocks(pos int, data []byte) error {
	defer f.s.undo.lock()()
	bs := f.s.Config().BlockSize
	f.s.undo.saveRange(f.BlockFile, pos, len(data)/bs, bs)
	t0 := f.s.rec.now()
	err := f.BlockFile.WriteBlocks(pos, data)
	f.s.span("write", f.kind, len(data), t0)
	return err
}

func (f *recFile) SetContents(p []byte) error {
	defer f.s.undo.lock()()
	f.s.undo.saveWhole(f.BlockFile, f.Name())
	t0 := f.s.rec.now()
	err := f.BlockFile.SetContents(p)
	f.s.span("set", f.kind, f.BlockFile.Bytes(), t0)
	return err
}

func (f *recFile) Truncate(nblocks int) error {
	defer f.s.undo.lock()()
	if n := f.BlockFile.Blocks(); nblocks >= 0 && nblocks < n {
		f.s.undo.saveRange(f.BlockFile, nblocks, n-nblocks, f.s.Config().BlockSize)
	}
	t0 := f.s.rec.now()
	err := f.BlockFile.Truncate(nblocks)
	f.s.span("truncate", f.kind, 0, t0)
	return err
}

// undoLog holds the pre-images of the changes made since the last Sync.
// Its lock also serializes the mutations it records, so a pre-image is
// always taken right before the change it undoes. A nil *undoLog records
// nothing, and every method is a no-op on it.
type undoLog struct {
	mu      sync.Mutex
	entries []undoEntry
	err     error // first failed pre-image read; crash images are invalid after it
}

type undoOp int

const (
	undoTruncate undoOp = iota // shrink the file back to off bytes
	undoWrite                  // write data back at off
	undoRestore                // restore the whole file (or its absence)
)

type undoEntry struct {
	name    string
	op      undoOp
	off     int64
	data    []byte
	existed bool
}

func (u *undoLog) lock() func() {
	if u == nil {
		return func() {}
	}
	u.mu.Lock()
	return u.mu.Unlock
}

func (u *undoLog) add(e undoEntry) {
	if u != nil {
		u.entries = append(u.entries, e)
	}
}

func (u *undoLog) clear() {
	if u != nil {
		u.entries = nil
	}
}

// saveWhole records the whole content of bf, or the absence of name when
// bf is nil.
func (u *undoLog) saveWhole(bf store.BlockFile, name string) {
	if u == nil {
		return
	}
	e := undoEntry{name: name, op: undoRestore}
	if bf != nil {
		e.existed = true
		if n := bf.Blocks(); n > 0 {
			e.data = u.read(bf, 0, n)
		}
	}
	u.add(e)
}

// saveRange records nblocks blocks of bf starting at block pos.
func (u *undoLog) saveRange(bf store.BlockFile, pos, nblocks, bs int) {
	if u == nil || nblocks <= 0 {
		return
	}
	u.add(undoEntry{name: bf.Name(), op: undoWrite, off: int64(pos) * int64(bs), data: u.read(bf, pos, nblocks)})
}

func (u *undoLog) read(bf store.BlockFile, pos, nblocks int) []byte {
	b, err := bf.ReadBlocks(pos, nblocks)
	if err != nil && u.err == nil {
		u.err = err
	}
	return b
}

func (e undoEntry) apply(dir string) error {
	path := filepath.Join(dir, e.name)
	switch e.op {
	case undoTruncate:
		return os.Truncate(path, e.off)
	case undoWrite:
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(e.data, e.off); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if !e.existed {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	}
	return os.WriteFile(path, e.data, 0o644)
}
