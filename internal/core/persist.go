package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// File names of the IQ-tree's on-disk structure. The three data files
// correspond to the three levels of paper Fig. 3; the meta file is a
// superblock holding what a reopening process cannot recover from the
// levels themselves. The quantized and exact files carry a generation
// suffix after the first incremental reoptimization (see genName).
const (
	MetaFileName = "iq.meta"
	DirFileName  = "iq.dir"
	QFileName    = "iq.quant"
	EFileName    = "iq.exact"
)

// metaMagic identifies the superblock format.
const metaMagic = 0x49515452 // "IQTR"

// metaVersion 2 added the WAL flag, the data-file generation and the
// auto-checkpoint threshold; version 3 dropped the quantized page size
// (a page is one block); version 4 added the cost model's neighbor
// count and the fixed quantization level, so a reopened tree
// reoptimizes as the built one does. Other versions are rejected.
const metaVersion = 4

// writeMeta serializes the superblock for the given epoch. Layout
// (little-endian):
//
//	magic u32 | version u32 | dim u32 | entries u32 | live points u64 |
//	metric u8 | quantize u8 | optimizedIO u8 | wal u8 |
//	fractalDim f64 | refineFactor f64 | gen u32 | ckptBlocks u32 |
//	knnTarget u32 | fixedBits u8
//
// In WAL mode the dynamic fields (entries, live points, gen) are only
// trustworthy at checkpoints — the meta file is rewritten per update but
// fsynced only by checkpoints, and recovery takes them from the newest
// checkpoint record instead.
func (t *Tree) writeMeta(sn *snapshot) error {
	buf := make([]byte, 57)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], metaMagic)
	le.PutUint32(buf[4:], metaVersion)
	le.PutUint32(buf[8:], uint32(t.dim))
	le.PutUint32(buf[12:], uint32(len(sn.entries)))
	le.PutUint64(buf[16:], uint64(sn.n))
	buf[24] = uint8(t.opt.Metric)
	buf[25] = b2u(t.opt.Quantize)
	buf[26] = b2u(t.opt.OptimizedIO)
	buf[27] = b2u(t.opt.WAL)
	le.PutUint64(buf[28:], math.Float64bits(t.fractalDim))
	le.PutUint64(buf[36:], math.Float64bits(sn.model.RefineFactor))
	le.PutUint32(buf[44:], t.gen)
	le.PutUint32(buf[48:], uint32(t.opt.WALCheckpointBlocks))
	le.PutUint32(buf[52:], uint32(t.opt.KNNTarget))
	buf[56] = uint8(t.opt.FixedBits)
	return t.metaFile.SetContents(buf)
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Open reconstructs an IQ-tree from the files a previous Build (plus any
// later maintenance) left on the store — the same in-memory store, or a
// file-backed store reopened by another process. The returned tree
// answers queries and accepts updates exactly like the original.
//
// For a WAL-mode tree this is the recovery path: the newest valid
// checkpoint record provides the base state, the data files are trimmed
// back to its extents (discarding physical writes of mutations that will
// be replayed, or that were never acknowledged), the surviving WAL
// records are replayed through the normal apply path, and a fresh
// checkpoint makes the recovered state durable. Torn tails of either log
// are truncated, never replayed.
func Open(sto *store.Store) (*Tree, error) {
	meta := sto.File(MetaFileName)
	if meta == nil {
		return nil, errors.New("core: no IQ-tree on this store")
	}
	if meta.Blocks() == 0 {
		return nil, errors.New("core: empty meta file")
	}
	buf, err := meta.ReadRaw(0, 1)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != metaMagic {
		return nil, errors.New("core: bad meta magic")
	}
	if v := le.Uint32(buf[4:]); v != metaVersion {
		return nil, fmt.Errorf("core: unsupported meta version %d", v)
	}
	t := &Tree{
		sto:      sto,
		metaFile: meta,
		geometry: geometry{dim: int(le.Uint32(buf[8:])), blockSize: sto.Config().BlockSize},
	}
	t.opt = Options{
		Metric:              vec.Metric(buf[24]),
		Quantize:            buf[25] == 1,
		OptimizedIO:         buf[26] == 1,
		WAL:                 buf[27] == 1,
		WALCheckpointBlocks: int(le.Uint32(buf[48:])),
		KNNTarget:           int(le.Uint32(buf[52:])),
		FixedBits:           int(buf[56]),
	}
	t.fractalDim = math.Float64frombits(le.Uint64(buf[28:]))
	refineFactor := math.Float64frombits(le.Uint64(buf[36:]))
	if t.dirFile = sto.File(DirFileName); t.dirFile == nil {
		return nil, errors.New("core: missing directory file")
	}
	if t.opt.WAL {
		return t.recover(refineFactor)
	}

	t.gen = le.Uint32(buf[44:])
	if t.qFile = sto.File(genName(QFileName, t.gen)); t.qFile == nil {
		return nil, fmt.Errorf("core: missing quantized file (generation %d)", t.gen)
	}
	if t.eFile = sto.File(genName(EFileName, t.gen)); t.eFile == nil {
		return nil, fmt.Errorf("core: missing exact file (generation %d)", t.gen)
	}
	t.eFile.EvictFirst()
	nEntries := int(le.Uint32(buf[12:]))

	// Rebuild the in-memory directory from level 1.
	entrySize := page.DirEntrySize(t.dim)
	if t.dirFile.Bytes() < nEntries*entrySize {
		return nil, fmt.Errorf("core: directory file too small for %d entries", nEntries)
	}
	var raw []byte
	if t.dirFile.Blocks() > 0 {
		if raw, err = t.dirFile.ReadRaw(0, t.dirFile.Blocks()); err != nil {
			return nil, err
		}
	}
	entries := make([]page.DirEntry, nEntries)
	for i := 0; i < nEntries; i++ {
		entries[i] = page.UnmarshalDirEntry(raw[i*entrySize:], t.dim)
	}
	sn, err := t.rebuildSnapshot(entries, int(le.Uint64(buf[16:])), nil, refineFactor)
	if err != nil {
		return nil, err
	}
	t.publish(sn)
	return t, nil
}

// SharedPageError reports a directory Open refuses: two live entries
// claim one quantized page, so queries would answer the page for both
// and the position index could name only one of them.
type SharedPageError struct {
	QPos          int // the quantized page
	First, Second int // the entries claiming it, in directory order
}

func (e *SharedPageError) Error() string {
	return fmt.Sprintf("core: directory entries %d and %d both claim quantized page %d", e.First, e.Second, e.QPos)
}

// rebuildSnapshot reconstructs a snapshot from serialized directory
// entries: iq.dir's, or a checkpoint record's. dataSpace nil means
// "union of the live MBRs" (the legacy reconstruction); checkpoints
// supply the exact live value. Two live entries that claim one
// quantized page fail it with a *SharedPageError.
func (t *Tree) rebuildSnapshot(entries []page.DirEntry, n int, dataSpace *vec.MBR, refineFactor float64) (*snapshot, error) {
	sn := &snapshot{
		n:         n,
		dirBlocks: t.dirFile.Blocks(),
	}
	sn.dataSpace = vec.NewMBR(t.dim)
	// The quantized file may extend past the last live page (stale
	// versions from out-of-place updates); size the position index by the
	// file so batch scans can classify every position.
	if qpages := t.qFile.Blocks(); qpages > 0 {
		sn.entryAt = make([]int32, qpages)
		for i := range sn.entryAt {
			sn.entryAt[i] = -1
		}
	}
	for i, e := range entries {
		sn.entries = append(sn.entries, e)
		bits := int(e.Bits)
		if bits < 1 || bits > quantize.ExactBits {
			bits = 1 // freed placeholder entries may carry stale levels
		}
		sn.grids = append(sn.grids, quantize.NewGrid(e.MBR, bits))
		free := e.Count == 0
		sn.free = append(sn.free, free)
		if !free {
			if j := sn.entryIndex(int(e.QPos)); j >= 0 {
				return nil, &SharedPageError{QPos: int(e.QPos), First: j, Second: i}
			}
			sn.dataSpace.ExtendMBR(e.MBR)
			sn.setOwner(int(e.QPos), i)
		}
	}
	if dataSpace != nil {
		sn.dataSpace = dataSpace.Clone()
	}
	sn.model = newModel(t.sto.Config(), t.opt, t.dim, sn.n, t.fractalDim, sn.dataSpace)
	sn.model.RefineFactor = refineFactor
	return sn, nil
}

// recover rebuilds a WAL-mode tree: newest checkpoint + log replay.
func (t *Tree) recover(refineFactor float64) (*Tree, error) {
	backend := t.sto.Backend()
	// Find the newest generation with a valid checkpoint record. A crash
	// mid-swap can leave two checkpoint logs; the newer one is only
	// authoritative if it holds a valid record.
	var (
		best    checkpointRecord
		bestLog string
		found   bool
	)
	for _, name := range backend.Names() {
		if !store.IsWALFile(name) {
			continue
		}
		gen, ok := genOfName(CkptBaseName, name[:len(name)-len(store.WALSuffix)])
		if !ok {
			continue
		}
		_, recs, err := store.InspectWAL(backend, name)
		if err != nil {
			return nil, err
		}
		// Last valid record wins within a log; iterate from the end.
		for i := len(recs) - 1; i >= 0; i-- {
			c, err := decodeCheckpoint(recs[i].Payload, t.dim)
			if err != nil || c.gen != gen {
				continue
			}
			if !found || c.gen > best.gen {
				best = c
				bestLog = name
				found = true
			}
			break
		}
	}
	if !found {
		return nil, errors.New("core: WAL-mode tree has no valid checkpoint")
	}
	t.gen = best.gen
	if t.qFile = t.sto.File(genName(QFileName, t.gen)); t.qFile == nil {
		return nil, fmt.Errorf("core: missing quantized file (generation %d)", t.gen)
	}
	if t.eFile = t.sto.File(genName(EFileName, t.gen)); t.eFile == nil {
		return nil, fmt.Errorf("core: missing exact file (generation %d)", t.gen)
	}
	t.eFile.EvictFirst()
	// Trim physical writes past the checkpoint: they belong to mutations
	// that replay re-applies (identically, LSN order = apply order) or
	// that never got acknowledged.
	if err := t.qFile.Truncate(best.qBlocks); err != nil {
		return nil, err
	}
	if err := t.eFile.Truncate(best.eBlocks); err != nil {
		return nil, err
	}
	sn, err := t.rebuildSnapshot(best.entries, best.n, &best.dataSpace, refineFactor)
	if err != nil {
		return nil, err
	}

	ckptLog, _, _, err := store.OpenWAL(backend, bestLog)
	if err != nil {
		return nil, err
	}
	t.ckptLog = ckptLog
	wal, recs, _, err := store.OpenWAL(backend, WALFileName)
	if err != nil {
		return nil, err
	}
	t.wal = wal
	free := t.sto.NewSession()
	replayed := 0
	for _, r := range recs {
		if r.LSN <= best.lsn {
			continue // already reflected in the checkpoint's state
		}
		op, err := decodeMutOp(r.Kind, r.Payload, t.dim)
		if err != nil {
			return nil, fmt.Errorf("core: WAL replay LSN %d: %w", r.LSN, err)
		}
		if err := t.applyMutOp(free, sn, op); err != nil {
			return nil, fmt.Errorf("core: WAL replay LSN %d: %w", r.LSN, err)
		}
		replayed++
	}
	if err := t.sto.Err(); err != nil {
		return nil, err
	}
	if err := t.writeDirectory(sn); err != nil {
		return nil, err
	}
	// The recovered state becomes the new durable base; the WAL restarts
	// empty so a second recovery does not replay twice.
	if err := t.checkpoint(sn); err != nil {
		return nil, err
	}
	// Drop files of other generations: leftovers of a crashed swap (never
	// committed) or of a committed swap whose cleanup was interrupted.
	for _, name := range backend.Names() {
		stale := false
		if g, ok := genOfName(QFileName, name); ok && g != t.gen {
			stale = true
		}
		if g, ok := genOfName(EFileName, name); ok && g != t.gen {
			stale = true
		}
		if store.IsWALFile(name) {
			if g, ok := genOfName(CkptBaseName, name[:len(name)-len(store.WALSuffix)]); ok && g != t.gen {
				stale = true
			}
		}
		if stale {
			if err := t.sto.Remove(name); err != nil {
				return nil, err
			}
		}
	}
	t.publish(sn)
	return t, nil
}
