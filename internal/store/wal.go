package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Write-ahead log. A WAL is an append-only block file of checksummed,
// length-prefixed records: writers buffer records, and a commit flushes
// everything buffered and fsyncs it. The log does no grouping of its
// own — every writer is already serialized, and the engine's write lane
// is the one batching point: it coalesces a burst of inserts into one
// InsertBatch, one record and one commit. Recovery scans the log from
// the front, stops at the first frame that fails its CRC (or breaks LSN
// monotonicity), and truncates that torn tail — torn records are never
// replayed.
//
// Frame layout (little-endian); every frame starts on a block boundary
// and is zero-padded to whole blocks:
//
//	[0:4)  total frame length (header + payload), padding excluded
//	[4:8)  CRC32C over bytes [8:length)
//	[8:16) LSN (strictly increasing from 1)
//	[16]   record kind (opaque to the store layer)
//	[17:)  payload
//
// A flush appends whole blocks, so durable blocks are never rewritten by
// later appends: a torn append can only damage frames of the final
// (uncommitted) flush, which is exactly the tail recovery is allowed to
// discard, and cutting it off is a truncation at a block boundary.
const (
	// WALSuffix names write-ahead-log files. WAL records carry their own
	// CRC32C, so checksum sidecars skip these files (see EnableChecksums).
	WALSuffix = ".wal"

	walHeaderSize = 17
)

// IsWALFile reports whether name is a write-ahead log.
func IsWALFile(name string) bool { return strings.HasSuffix(name, WALSuffix) }

// Process-wide WAL metrics on obs.Default(), so a metrics dump shows
// ingest durability health next to serving metrics.
var (
	metricWALAppends = obs.Default().Counter("wal.appends")
	metricWALFsyncs  = obs.Default().Counter("wal.fsyncs")
	metricWALReplays = obs.Default().Counter("wal.replays")
)

// WALRecord is one recovered log record.
type WALRecord struct {
	LSN     uint64
	Kind    uint8
	Payload []byte
}

// WALInfo summarizes a scan of the log.
type WALInfo struct {
	Records  int    `json:"records"`
	FirstLSN uint64 `json:"first_lsn,omitempty"`
	LastLSN  uint64 `json:"last_lsn,omitempty"`
	Blocks   int    `json:"blocks"`
	// Torn reports that the valid prefix ends before the end of the
	// file; TornBlocks is the extent of the discarded tail.
	Torn       bool `json:"torn,omitempty"`
	TornBlocks int  `json:"torn_blocks,omitempty"`
}

// WAL is a write-ahead log over one backend block file. One mutex
// guards it, held across a commit's flush and fsync.
type WAL struct {
	bf      BlockFile
	bs      int
	backend BlockStore // fsynced on commit

	mu       sync.Mutex
	nextLSN  uint64
	appended uint64 // highest LSN buffered (or flushed)
	durable  uint64 // highest LSN known to be on stable storage
	pending  []byte // frames not yet written to the backend
	err      error  // sticky: a failed flush loses buffered records
}

// scanWAL reads the valid frame prefix of bf, the one frame parser of
// recovery and inspection. It steps from frame to frame by whole blocks
// and stops at the first frame that is shorter than its header, runs
// past the file, fails its CRC32C or does not raise the LSN. A prefix
// shorter than the file leaves a torn tail, which info reports.
func scanWAL(bf BlockFile, bs int) ([]WALRecord, WALInfo, error) {
	info := WALInfo{Blocks: bf.Blocks()}
	if info.Blocks == 0 {
		return nil, info, nil
	}
	raw, err := bf.ReadBlocks(0, info.Blocks)
	if err != nil {
		return nil, WALInfo{}, err
	}
	le := binary.LittleEndian
	var recs []WALRecord
	good := 0 // blocks of the valid prefix
	for off := 0; off+walHeaderSize <= len(raw); off = good * bs {
		length := int(le.Uint32(raw[off:]))
		if length < walHeaderSize || length > len(raw)-off {
			break
		}
		frame := raw[off : off+length]
		lsn := le.Uint64(frame[8:])
		if crc32.Checksum(frame[8:], castagnoli) != le.Uint32(frame[4:]) || lsn <= info.LastLSN {
			break
		}
		info.LastLSN = lsn
		recs = append(recs, WALRecord{
			LSN:     lsn,
			Kind:    frame[16],
			Payload: append([]byte(nil), frame[walHeaderSize:]...),
		})
		good += (length + bs - 1) / bs
	}
	info.Records = len(recs)
	if len(recs) > 0 {
		info.FirstLSN = recs[0].LSN
	}
	if good < info.Blocks {
		info.Torn = true
		info.TornBlocks = info.Blocks - good
	}
	return recs, info, nil
}

// InspectWAL scans the named log read-only: no truncation, no replay
// bookkeeping. Missing file means an empty, healthy log.
func InspectWAL(backend BlockStore, name string) (WALInfo, []WALRecord, error) {
	bf := backend.Lookup(name)
	if bf == nil {
		return WALInfo{}, nil, nil
	}
	recs, info, err := scanWAL(bf, backend.Config().BlockSize)
	if err != nil {
		return WALInfo{}, nil, fmt.Errorf("store: read WAL %s: %w", name, err)
	}
	return info, recs, nil
}

// CreateWAL creates (or truncates) the named log.
func CreateWAL(backend BlockStore, name string) (*WAL, error) {
	bf, err := backend.Create(name)
	if err != nil {
		return nil, fmt.Errorf("store: create WAL %s: %w", name, err)
	}
	return &WAL{bf: bf, bs: backend.Config().BlockSize, backend: backend, nextLSN: 1}, nil
}

// OpenWAL opens the named log (creating it if absent), truncates any
// torn tail, and returns the surviving records for the caller to replay.
// The returned WAL resumes LSN assignment after the last valid record.
func OpenWAL(backend BlockStore, name string) (*WAL, []WALRecord, WALInfo, error) {
	bs := backend.Config().BlockSize
	bf := backend.Lookup(name)
	if bf == nil {
		w, err := CreateWAL(backend, name)
		return w, nil, WALInfo{}, err
	}
	recs, info, err := scanWAL(bf, bs)
	if err != nil {
		return nil, nil, WALInfo{}, fmt.Errorf("store: read WAL %s: %w", name, err)
	}
	if info.Torn {
		if err := bf.Truncate(info.Blocks - info.TornBlocks); err != nil {
			return nil, nil, WALInfo{}, fmt.Errorf("store: truncate torn WAL %s: %w", name, err)
		}
	}
	w := &WAL{bf: bf, bs: bs, backend: backend, nextLSN: info.LastLSN + 1, appended: info.LastLSN, durable: info.LastLSN}
	metricWALReplays.Add(int64(len(recs)))
	return w, recs, info, nil
}

// encodeWALFrame serializes one record into its on-disk frame.
func encodeWALFrame(lsn uint64, kind uint8, payload []byte) []byte {
	length := walHeaderSize + len(payload)
	frame := make([]byte, length)
	le := binary.LittleEndian
	le.PutUint32(frame[0:], uint32(length))
	le.PutUint64(frame[8:], lsn)
	frame[16] = kind
	copy(frame[walHeaderSize:], payload)
	le.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	return frame
}

// Append buffers one record, zero-padded to whole blocks, and returns
// its LSN. The record is NOT durable until a Commit covering the LSN
// returns; callers must not acknowledge the mutation before then.
// Appends never block on I/O.
func (w *WAL) Append(kind uint8, payload []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	w.nextLSN++
	frame := encodeWALFrame(lsn, kind, payload)
	w.pending = append(w.pending, frame...)
	if rem := len(frame) % w.bs; rem != 0 {
		w.pending = append(w.pending, make([]byte, w.bs-rem)...)
	}
	w.appended = lsn
	metricWALAppends.Inc()
	return lsn
}

// Commit makes every record up to and including lsn durable: it appends
// every buffered frame (each already a whole number of blocks, so
// durable blocks are never rewritten) and fsyncs. A commit whose LSN an
// earlier flush covered returns without I/O.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.durable >= lsn {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	if len(w.pending) > 0 {
		batch := w.pending
		w.pending = nil
		if _, _, err := w.bf.Append(batch); err != nil {
			return w.fail(fmt.Errorf("store: WAL append: %w", err))
		}
	}
	if err := w.backend.Sync(); err != nil {
		return w.fail(fmt.Errorf("store: WAL fsync: %w", err))
	}
	metricWALFsyncs.Inc()
	w.durable = w.appended
	return nil
}

// fail poisons the WAL: a failed flush may have lost buffered records,
// so no later commit can be trusted to cover earlier LSNs. The caller
// holds w.mu.
func (w *WAL) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Reset truncates the log after a checkpoint: every buffered or logged
// record is considered durable via the checkpoint, so the file restarts
// empty while LSN assignment keeps counting up (recovery relies on
// monotonic LSNs to pair a checkpoint with the records that follow it).
// Callers must have made all state covered by LSNs ≤ the current append
// watermark durable before calling.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = nil
	if w.err != nil {
		return w.err
	}
	if err := w.bf.SetContents(nil); err != nil {
		return w.fail(fmt.Errorf("store: WAL reset: %w", err))
	}
	w.durable = w.appended
	return nil
}

// DurableLSN returns the highest LSN known durable.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// AppendedLSN returns the highest LSN assigned so far.
func (w *WAL) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Blocks returns the current on-disk extent of the log (buffered records
// not yet flushed are excluded) — the signal auto-checkpoint thresholds
// watch.
func (w *WAL) Blocks() int { return w.bf.Blocks() }

// Name returns the log's file name.
func (w *WAL) Name() string { return w.bf.Name() }
