package store

import "fmt"

// copyChunk is the copy granularity in blocks.
const copyChunk = 256

// Copy makes dst an exact twin of src, the replica rebuild of the shard
// coordinator (DESIGN.md §15): every file dst holds is removed, then
// every file of src — data files, their checksum sidecars and the logs
// alike — is copied block for block, bytes unchanged, and dst is synced.
// Copy works on the backends directly: a copy is replication plumbing,
// not query work, so it charges no session and bypasses any cache.
//
// The caller must keep src quiescent for the whole copy. A file that
// changes mid-copy leaves dst holding no consistent image, and no check
// here can tell. The logs need no special treatment: a torn tail
// arrives torn, and recovery on dst truncates it exactly as it would on
// src.
func Copy(dst, src BlockStore) error {
	for _, name := range dst.Names() {
		if err := dst.Remove(name); err != nil {
			return fmt.Errorf("store: copy: wipe %s: %w", name, err)
		}
	}
	for _, name := range src.Names() {
		if err := copyFile(dst, src, name); err != nil {
			return err
		}
	}
	return dst.Sync()
}

// copyFile copies one file's blocks from src to a new file on dst.
func copyFile(dst, src BlockStore, name string) error {
	from := src.Lookup(name)
	if from == nil {
		return fmt.Errorf("store: copy %s: source file vanished", name)
	}
	to, err := dst.Create(name)
	if err != nil {
		return fmt.Errorf("store: copy %s: %w", name, err)
	}
	blocks := from.Blocks()
	for pos := 0; pos < blocks; pos += copyChunk {
		n := min(copyChunk, blocks-pos)
		data, err := from.ReadBlocks(pos, n)
		if err != nil {
			return fmt.Errorf("store: copy %s block %d: %w", name, pos, err)
		}
		if _, _, err := to.Append(data); err != nil {
			return fmt.Errorf("store: copy %s block %d: %w", name, pos, err)
		}
	}
	return nil
}

// CopyFrom makes the store's backend an exact twin of src (see Copy) and
// forgets every file wrapper and pooled frame the store held, so the
// copied files are looked up afresh, with their sidecars loaded when
// checksums are on. The store keeps its pool, retry policy and checksum
// setting; the copied blocks bypass the pool and enter it when a session
// first reads them. Wrappers held from before the copy are invalid.
func (s *Store) CopyFrom(src BlockStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := Copy(s.backend, src)
	if s.pool != nil {
		for name := range s.files {
			s.pool.InvalidateFile(name)
		}
	}
	s.files = make(map[string]*File)
	if err != nil {
		return s.failLocked(err)
	}
	if s.checked.Load() {
		return s.attachAllSumsLocked()
	}
	return nil
}
