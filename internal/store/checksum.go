package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
)

// Checksum frames. When checksums are enabled (Store.EnableChecksums),
// every data file gains a sidecar block file "<name>.crc" on the same
// backend holding one CRC32C per data block:
//
//	header (16 bytes, little-endian):
//	  [0:4)   magic  "IQCS" (0x49514353)
//	  [4:8)   format version (currently 1)
//	  [8:12)  block size the sums were computed over
//	  [12:16) number of recorded block sums
//	  then 4 bytes of CRC32C per data block, padded to a block boundary.
//
// The data files themselves are unchanged — this is the "new store
// format version": a checksummed store is a plain store plus sidecars,
// so old stores open fine (sums are computed on adoption) and old
// readers can ignore the sidecars entirely. The sidecar is rewritten
// after the data mutation it covers; a crash between the two leaves a
// tail of data blocks without recorded sums, which read back as
// Unverifiable CorruptBlockErrors — the cautious direction.
const (
	// ChecksumSuffix names checksum sidecar files.
	ChecksumSuffix = ".crc"

	sumMagic      = 0x49514353 // "IQCS"
	sumVersion    = 1
	sumHeaderSize = 16
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsChecksumFile reports whether name is a checksum sidecar.
func IsChecksumFile(name string) bool { return strings.HasSuffix(name, ChecksumSuffix) }

// sumTable is the in-memory mirror of one data file's checksum sidecar.
// The File wrapper updates it write-through on every mutation; sessions
// verify uncached reads against it under the read lock.
type sumTable struct {
	mu   sync.RWMutex
	bf   BlockFile // the sidecar file
	bs   int
	sums []uint32 // one CRC32C per data block
}

// blockSums appends the per-block CRC32C of p (interpreted as nblocks
// zero-padded blocks of size bs) to dst.
func blockSums(dst []uint32, p []byte, nblocks, bs int) []uint32 {
	var pad []byte
	for b := 0; b < nblocks; b++ {
		lo := b * bs
		hi := lo + bs
		if hi <= len(p) {
			dst = append(dst, crc32.Checksum(p[lo:hi], castagnoli))
			continue
		}
		// Final partial block: checksum the content plus its zero padding,
		// matching the padded bytes the backend stores.
		c := uint32(0)
		if lo < len(p) {
			c = crc32.Update(0, castagnoli, p[lo:])
		}
		if pad == nil {
			pad = make([]byte, bs)
		}
		short := hi - len(p)
		if short > bs {
			short = bs
		}
		dst = append(dst, crc32.Update(c, castagnoli, pad[:short]))
	}
	return dst
}

// loadSumTable attaches (loading or initializing) the sidecar bf as the
// sum table of a data file with dataBlocks blocks.
func loadSumTable(bf BlockFile, bs int) (*sumTable, error) {
	t := &sumTable{bf: bf, bs: bs}
	if bf.Blocks() == 0 {
		return t, nil
	}
	raw, err := bf.ReadBlocks(0, bf.Blocks())
	if err != nil {
		return nil, fmt.Errorf("store: read checksum sidecar %s: %w", bf.Name(), err)
	}
	le := binary.LittleEndian
	if len(raw) < sumHeaderSize || le.Uint32(raw[0:]) != sumMagic {
		return nil, fmt.Errorf("store: %s is not a checksum sidecar (bad magic)", bf.Name())
	}
	if v := le.Uint32(raw[4:]); v != sumVersion {
		return nil, fmt.Errorf("store: checksum sidecar %s has format version %d, want %d", bf.Name(), v, sumVersion)
	}
	if got := int(le.Uint32(raw[8:])); got != bs {
		return nil, fmt.Errorf("store: checksum sidecar %s covers %d-byte blocks, store uses %d", bf.Name(), got, bs)
	}
	n := int(le.Uint32(raw[12:]))
	if sumHeaderSize+4*n > len(raw) {
		return nil, fmt.Errorf("store: checksum sidecar %s truncated: %d sums recorded, %d bytes present", bf.Name(), n, len(raw))
	}
	t.sums = make([]uint32, n)
	for i := range t.sums {
		t.sums[i] = le.Uint32(raw[sumHeaderSize+4*i:])
	}
	return t, nil
}

// persistLocked rewrites the sidecar from the in-memory mirror. Callers
// hold t.mu.
func (t *sumTable) persistLocked() error {
	buf := make([]byte, sumHeaderSize+4*len(t.sums))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sumMagic)
	le.PutUint32(buf[4:], sumVersion)
	le.PutUint32(buf[8:], uint32(t.bs))
	le.PutUint32(buf[12:], uint32(len(t.sums)))
	for i, s := range t.sums {
		le.PutUint32(buf[sumHeaderSize+4*i:], s)
	}
	if err := t.bf.SetContents(buf); err != nil {
		return fmt.Errorf("store: persist checksum sidecar %s: %w", t.bf.Name(), err)
	}
	return nil
}

// recordAppend records the sums of an append of p at block pos and
// persists the sidecar.
func (t *sumTable) recordAppend(pos int, p []byte, nblocks int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pos != len(t.sums) {
		// The file grew past our mirror (or shrank behind our back);
		// resize so the recorded count matches the append position. Gaps
		// read back as mismatches, which is the safe direction.
		if pos < len(t.sums) {
			t.sums = t.sums[:pos]
		} else {
			for len(t.sums) < pos {
				t.sums = append(t.sums, 0)
			}
		}
	}
	t.sums = blockSums(t.sums, p, nblocks, t.bs)
	return t.persistLocked()
}

// recordContents replaces the whole table with the sums of p and
// persists the sidecar.
func (t *sumTable) recordContents(p []byte, nblocks int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sums = blockSums(t.sums[:0], p, nblocks, t.bs)
	return t.persistLocked()
}

// truncateTo drops the recorded sums past nblocks and persists the
// sidecar (a no-op when nothing is recorded past it).
func (t *sumTable) truncateTo(nblocks int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if nblocks < 0 || nblocks >= len(t.sums) {
		return nil
	}
	t.sums = t.sums[:nblocks]
	return t.persistLocked()
}

// verify checks nblocks blocks of data read from block pos of the named
// file against the recorded sums. It returns a *CorruptBlockError for
// the first mismatching or unrecorded block.
func (t *sumTable) verify(name string, pos int, data []byte, nblocks int) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for b := 0; b < nblocks; b++ {
		if pos+b >= len(t.sums) {
			metricChecksumFailures.Inc()
			return &CorruptBlockError{File: name, Block: pos + b, Unverifiable: true}
		}
		got := crc32.Checksum(data[b*t.bs:(b+1)*t.bs], castagnoli)
		if want := t.sums[pos+b]; got != want {
			metricChecksumFailures.Inc()
			return &CorruptBlockError{File: name, Block: pos + b, Want: want, Got: got}
		}
	}
	return nil
}

// recorded returns the number of blocks with recorded sums.
func (t *sumTable) recorded() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sums)
}

// EnableChecksums switches the store to checksummed operation: every
// data file (present or created later) gets a CRC32C sum per block,
// mirrored in memory and persisted to a "<name>.crc" sidecar on the
// backend. Files that already have a sidecar load it; files without one
// (legacy stores) have their sums computed from the current content.
// Uncached session reads and File.ReadRaw verify against the sums and
// surface mismatches as *CorruptBlockError.
//
// Enable checksums before serving: toggling while sessions are reading
// concurrently is not synchronized.
func (s *Store) EnableChecksums() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checked.Store(true)
	return s.attachAllSumsLocked()
}

// attachAllSumsLocked gives every data file on the backend its sum
// table, creating the canonical wrappers it lacks; a wrapper is cached
// only once its sums are attached (see File). A sidecar that fails to
// load does not stop the others: every file that can be verified is,
// and the first failure is returned.
func (s *Store) attachAllSumsLocked() error {
	var first error
	for _, name := range s.backend.Names() {
		if keepsNoSums(name) {
			continue
		}
		f := s.files[name]
		if f == nil {
			bf := s.backend.Lookup(name)
			if bf == nil {
				continue
			}
			f = &File{st: s, bf: bf}
		}
		if err := s.attachSumsLocked(f, false); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		s.files[name] = f
	}
	return first
}

// Checked reports whether checksums are enabled on the store.
func (s *Store) Checked() bool { return s.checked.Load() }

// keepsNoSums reports whether the named file is exempt from checksum
// sidecars: a sidecar itself, or a log, whose records carry their own
// CRC32C and which is appended beneath the File wrapper.
func keepsNoSums(name string) bool { return IsChecksumFile(name) || IsWALFile(name) }

// attachSumsLocked gives f a sum table: loading its sidecar if one
// exists, computing sums from current content otherwise. truncate
// forces a fresh empty table (used by NewFile, which truncates data).
func (s *Store) attachSumsLocked(f *File, truncate bool) error {
	if f.sums != nil || keepsNoSums(f.Name()) {
		return nil
	}
	side := f.Name() + ChecksumSuffix
	bf := s.backend.Lookup(side)
	created := false
	if bf == nil || truncate {
		var err error
		if bf, err = s.backend.Create(side); err != nil {
			return s.failLocked(fmt.Errorf("store: create checksum sidecar %s: %w", side, err))
		}
		created = true
	}
	t, err := loadSumTable(bf, s.Config().BlockSize)
	if err != nil {
		return s.failLocked(err)
	}
	if created && f.Blocks() > 0 {
		// Adopting a legacy file: trust and record its current content.
		data, err := f.bf.ReadBlocks(0, f.Blocks())
		if err != nil {
			return s.failLocked(fmt.Errorf("store: adopt %s for checksums: %w", f.Name(), err))
		}
		t.sums = blockSums(t.sums[:0], data, f.Blocks(), t.bs)
		t.mu.Lock()
		err = t.persistLocked()
		t.mu.Unlock()
		if err != nil {
			return s.failLocked(err)
		}
	}
	f.sums = t
	return nil
}

// CorruptBlock identifies one block that failed the checksum scrub.
type CorruptBlock struct {
	File  string `json:"file"`
	Block int    `json:"block"`
}

// ScrubReport is the result of a full-store checksum scrub.
type ScrubReport struct {
	BlocksChecked int            `json:"blocks_checked"`
	Corrupt       []CorruptBlock `json:"corrupt,omitempty"`
}

// Scrub verifies every block of every data file on the backend against
// its recorded sums and returns the damaged blocks (mismatching content,
// missing sums, or blocks recorded but missing from the file). It reads
// the backend directly — no cache, no cost accounting — so it sees what
// is actually at rest. A data file without attached sums (its sidecar
// failed to load) fails the scrub with an error naming it, because
// nothing it holds can be verified; otherwise the error return reports
// scrub infrastructure failures only, and corruption is reported in the
// ScrubReport.
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if !s.checked.Load() {
		return rep, fmt.Errorf("store: scrub requires checksums (EnableChecksums)")
	}
	var files []*File
	var unsummed []string
	s.mu.Lock()
	for _, name := range s.backend.Names() {
		if keepsNoSums(name) {
			continue
		}
		if f := s.files[name]; f != nil && f.sums != nil {
			files = append(files, f)
		} else {
			unsummed = append(unsummed, name)
		}
	}
	s.mu.Unlock()
	if len(unsummed) > 0 {
		return rep, fmt.Errorf("store: scrub: data files without attached checksums (sidecar missing or unreadable): %q", unsummed)
	}

	for _, f := range files {
		blocks := f.Blocks()
		recorded := f.sums.recorded()
		for pos := 0; pos < blocks; pos++ {
			data, err := f.bf.ReadBlocks(pos, 1)
			if err != nil {
				return rep, fmt.Errorf("store: scrub read %s[%d]: %w", f.Name(), pos, err)
			}
			rep.BlocksChecked++
			if verr := f.sums.verify(f.Name(), pos, data, 1); verr != nil {
				rep.Corrupt = append(rep.Corrupt, CorruptBlock{File: f.Name(), Block: pos})
			}
		}
		// Sums recorded for blocks the file no longer has: the data went
		// missing (torn truncate); report them so damage is localized.
		for pos := blocks; pos < recorded; pos++ {
			rep.Corrupt = append(rep.Corrupt, CorruptBlock{File: f.Name(), Block: pos})
		}
	}
	return rep, nil
}
