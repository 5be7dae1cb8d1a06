package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/page"
	"repro/internal/store"
	"repro/internal/vec"
)

// Logical write-ahead logging for the IQ-tree (DESIGN.md §13). In WAL
// mode every mutation is acked only after its logical record — not the
// physical page writes it caused — is durable in the log. Because
// writers serialize on t.mu and LSN assignment happens inside the same
// critical section as the snapshot mutation, LSN order equals apply
// order, and replaying the records through the normal apply path
// reproduces the exact same sequence of file appends: recovery is
// bit-identical, not merely logically equivalent.
//
// A checkpoint makes the physical files authoritative up to an LSN
// watermark: data files are fsynced, then a checkpoint record (embedding
// the serialized directory and the data-file extents) is appended to a
// separate checkpoint log and fsynced, then the WAL restarts empty.
// Recovery trusts the newest valid checkpoint, truncates the data files
// back to its extents (discarding physical writes of unacked or
// to-be-replayed mutations), rebuilds the directory from the embedded
// copy, and replays WAL records with LSN > watermark.

// WAL record kinds (the store layer treats them as opaque). Every insert
// logs a batch record, a single point too. Kind 1, a one-point insert
// record, is retired: no tree Open accepts can hold one, so replay
// rejects it like any unknown kind.
const (
	walKindDelete      = 2 // id u32 | dim × f32
	walKindInsertBatch = 3 // count u32 | count × (id u32 | dim × f32)
)

// WALFileName is the mutation log; CkptBaseName names the checkpoint
// log of generation 0 (see genName for later generations). Both carry
// the store's WAL suffix so checksum sidecars skip them — their records
// are self-checksummed.
const (
	WALFileName  = "iq.wal"
	CkptBaseName = "iq.ckpt"

	ckptMagic = 0x4951434b // "IQCK"
)

// genName returns the generation-suffixed variant of a base file name:
// the base itself for generation 0, base+".gN" otherwise. Incremental
// reoptimization builds generation N+1 files beside the live generation
// N files and swaps atomically at the end.
func genName(base string, gen uint32) string {
	if gen == 0 {
		return base
	}
	return base + ".g" + strconv.FormatUint(uint64(gen), 10)
}

// ckptLogName returns the checkpoint log name for a generation.
func ckptLogName(gen uint32) string {
	return genName(CkptBaseName, gen) + store.WALSuffix
}

// genOfName parses the generation out of a file name produced by
// genName(base, ·), returning ok=false when name does not derive from
// base.
func genOfName(base, name string) (uint32, bool) {
	if name == base {
		return 0, true
	}
	if !strings.HasPrefix(name, base+".g") {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(base)+2:], 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(g), true
}

// mutOp is one logical mutation: the unit the WAL logs and the
// incremental reoptimizer captures as a delta. kind is a walKind*.
type mutOp struct {
	kind uint8
	pts  []vec.Point
	ids  []uint32
}

// encodeMutOp serializes op as a WAL record payload.
func encodeMutOp(op mutOp, dim int) []byte {
	le := binary.LittleEndian
	pointBytes := 4 + 4*dim
	var buf []byte
	switch op.kind {
	case walKindDelete:
		buf = make([]byte, 0, pointBytes)
	case walKindInsertBatch:
		buf = make([]byte, 0, 4+len(op.pts)*pointBytes)
		buf = le.AppendUint32(buf, uint32(len(op.pts)))
	default:
		panic("core: unknown mutation kind")
	}
	for i, p := range op.pts {
		buf = le.AppendUint32(buf, op.ids[i])
		for _, c := range p {
			buf = le.AppendUint32(buf, math.Float32bits(c))
		}
	}
	return buf
}

// decodeMutOp parses a WAL record back into the logical mutation.
func decodeMutOp(kind uint8, payload []byte, dim int) (mutOp, error) {
	le := binary.LittleEndian
	pointBytes := 4 + 4*dim
	op := mutOp{kind: kind}
	count := 1
	off := 0
	if kind == walKindInsertBatch {
		if len(payload) < 4 {
			return op, fmt.Errorf("core: truncated batch WAL record")
		}
		count = int(le.Uint32(payload))
		off = 4
	} else if kind != walKindDelete {
		return op, fmt.Errorf("core: unknown WAL record kind %d", kind)
	}
	if len(payload)-off != count*pointBytes {
		return op, fmt.Errorf("core: WAL record payload %d bytes, want %d points of %d",
			len(payload)-off, count, pointBytes)
	}
	op.pts = make([]vec.Point, count)
	op.ids = make([]uint32, count)
	for i := 0; i < count; i++ {
		op.ids[i] = le.Uint32(payload[off:])
		off += 4
		p := make(vec.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = math.Float32frombits(le.Uint32(payload[off:]))
			off += 4
		}
		op.pts[i] = p
	}
	return op, nil
}

// checkpointRecord is the decoded payload of one checkpoint-log record:
// everything recovery needs to reconstruct the directory and trim the
// data files without trusting iq.dir or iq.meta (which are rewritten
// per-update but only fsynced at checkpoints).
type checkpointRecord struct {
	gen       uint32
	lsn       uint64 // mutations with LSN ≤ lsn are reflected in the files
	n         int
	qBlocks   int
	eBlocks   int
	dataSpace vec.MBR // the live data space (it never shrinks, so it can exceed the union of page MBRs)
	entries   []page.DirEntry
}

const ckptHeaderSize = 40

// encodeCheckpoint serializes a checkpoint record payload: a fixed
// header, the data-space MBR (2·dim f32), then the serialized directory.
func encodeCheckpoint(c checkpointRecord, dim int) []byte {
	le := binary.LittleEndian
	entrySize := page.DirEntrySize(dim)
	buf := make([]byte, ckptHeaderSize, ckptHeaderSize+8*dim+len(c.entries)*entrySize)
	le.PutUint32(buf[0:], ckptMagic)
	le.PutUint32(buf[4:], c.gen)
	le.PutUint64(buf[8:], c.lsn)
	le.PutUint32(buf[16:], uint32(dim))
	le.PutUint64(buf[20:], uint64(c.n))
	le.PutUint32(buf[28:], uint32(c.qBlocks))
	le.PutUint32(buf[32:], uint32(c.eBlocks))
	le.PutUint32(buf[36:], uint32(len(c.entries)))
	for i := 0; i < dim; i++ {
		buf = le.AppendUint32(buf, math.Float32bits(c.dataSpace.Lo[i]))
	}
	for i := 0; i < dim; i++ {
		buf = le.AppendUint32(buf, math.Float32bits(c.dataSpace.Hi[i]))
	}
	tmp := make([]byte, entrySize)
	for i := range c.entries {
		c.entries[i].Marshal(tmp, dim)
		buf = append(buf, tmp...)
	}
	return buf
}

// decodeCheckpoint parses a checkpoint record payload, validating it
// against the tree's dimensionality.
func decodeCheckpoint(payload []byte, dim int) (checkpointRecord, error) {
	le := binary.LittleEndian
	var c checkpointRecord
	if len(payload) < ckptHeaderSize+8*dim {
		return c, fmt.Errorf("core: checkpoint record %d bytes, want ≥%d", len(payload), ckptHeaderSize+8*dim)
	}
	if le.Uint32(payload[0:]) != ckptMagic {
		return c, fmt.Errorf("core: bad checkpoint magic")
	}
	if d := int(le.Uint32(payload[16:])); d != dim {
		return c, fmt.Errorf("core: checkpoint dimensionality %d, tree has %d", d, dim)
	}
	c.gen = le.Uint32(payload[4:])
	c.lsn = le.Uint64(payload[8:])
	c.n = int(le.Uint64(payload[20:]))
	c.qBlocks = int(le.Uint32(payload[28:]))
	c.eBlocks = int(le.Uint32(payload[32:]))
	nEntries := int(le.Uint32(payload[36:]))
	c.dataSpace = vec.MBR{Lo: make(vec.Point, dim), Hi: make(vec.Point, dim)}
	off := ckptHeaderSize
	for i := 0; i < dim; i++ {
		c.dataSpace.Lo[i] = math.Float32frombits(le.Uint32(payload[off:]))
		off += 4
	}
	for i := 0; i < dim; i++ {
		c.dataSpace.Hi[i] = math.Float32frombits(le.Uint32(payload[off:]))
		off += 4
	}
	entrySize := page.DirEntrySize(dim)
	if len(payload)-off != nEntries*entrySize {
		return c, fmt.Errorf("core: checkpoint holds %d bytes of entries, want %d×%d",
			len(payload)-off, nEntries, entrySize)
	}
	c.entries = make([]page.DirEntry, nEntries)
	for i := 0; i < nEntries; i++ {
		c.entries[i] = page.UnmarshalDirEntry(payload[off+i*entrySize:], dim)
	}
	return c, nil
}
