package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Write-ahead log. A WAL is an append-only block file of checksummed,
// length-prefixed records: writers buffer records, and a commit flushes
// everything buffered in one block-padded batch and fsyncs it. The log
// does no grouping of its own — every shipped writer is already
// serialized, and the engine's write lane is the one batching point: it
// coalesces a burst of inserts into one InsertBatch, one record and one
// commit. Recovery scans
// the log from the front, stops at the first frame that fails its CRC
// (or breaks LSN monotonicity), and truncates that torn tail — torn
// records are never replayed.
//
// Frame layout (little-endian), packed back to back within blocks:
//
//	[0:4)  total frame length (header + payload); 0 = block padding
//	[4:8)  CRC32C over bytes [8:length)
//	[8:16) LSN (strictly increasing from 1)
//	[16]   record kind (opaque to the store layer)
//	[17:)  payload
//
// Frames may span block boundaries within one commit batch, but every
// flushed batch is zero-padded to a whole block, so durable blocks are
// never rewritten by later appends: a torn append can only damage
// frames of the final (uncommitted) batch, which is exactly the tail
// recovery is allowed to discard. A length field of zero marks padding,
// and so does a zero remainder of fewer than four bytes before a block
// boundary (too short to hold a length field: a batch that ended there,
// or bytes a writer skipped so no length field straddles a boundary);
// the scanner skips to the next block boundary.
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
	// Torn reports that the scan stopped at a damaged frame before the
	// end of the file; TornBlocks is the extent of the discarded tail.
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

// scanWAL reads the valid frame prefix of bf with a WALReader, the one
// frame parser of recovery, inspection and shipping. It returns the
// records, the byte offset one past the last valid frame (or padding
// run), and whether the scan stopped at a torn tail.
func scanWAL(bf BlockFile, bs int) (recs []WALRecord, goodEnd int, torn bool, err error) {
	r := &WALReader{bf: bf, bs: bs, end: bf.Blocks()}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, r.good, r.torn, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		recs = append(recs, rec)
	}
}

// walInfoOf summarizes a scan result.
func walInfoOf(recs []WALRecord, blocks int, torn bool, goodBlocks int) WALInfo {
	info := WALInfo{Records: len(recs), Blocks: blocks, Torn: torn}
	if len(recs) > 0 {
		info.FirstLSN = recs[0].LSN
		info.LastLSN = recs[len(recs)-1].LSN
	}
	if torn {
		info.TornBlocks = blocks - goodBlocks
	}
	return info
}

// InspectWAL scans the named log read-only: no truncation, no replay
// bookkeeping. Missing file means an empty, healthy log.
func InspectWAL(backend BlockStore, name string) (WALInfo, []WALRecord, error) {
	bs := backend.Config().BlockSize
	bf := backend.Lookup(name)
	if bf == nil || bf.Blocks() == 0 {
		return WALInfo{}, nil, nil
	}
	recs, goodEnd, torn, err := scanWAL(bf, bs)
	if err != nil {
		return WALInfo{}, nil, fmt.Errorf("store: read WAL %s: %w", name, err)
	}
	goodBlocks := (goodEnd + bs - 1) / bs
	return walInfoOf(recs, bf.Blocks(), torn, goodBlocks), recs, nil
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
	recs, goodEnd, torn, err := scanWAL(bf, bs)
	if err != nil {
		return nil, nil, WALInfo{}, fmt.Errorf("store: read WAL %s: %w", name, err)
	}
	goodBlocks := (goodEnd + bs - 1) / bs
	info := walInfoOf(recs, bf.Blocks(), torn, goodBlocks)
	if torn {
		if err := bf.Truncate(goodBlocks); err != nil {
			return nil, nil, WALInfo{}, fmt.Errorf("store: truncate torn WAL %s: %w", name, err)
		}
		if tail := goodEnd % bs; tail != 0 {
			// The last kept block carries both the final valid frames and
			// the head of the torn one. Zero everything past the last valid
			// frame so later scans read it as padding instead of stopping
			// there and orphaning records appended after this recovery.
			last, err := bf.ReadBlocks(goodBlocks-1, 1)
			if err != nil {
				return nil, nil, WALInfo{}, fmt.Errorf("store: read WAL %s: %w", name, err)
			}
			clean := make([]byte, bs)
			copy(clean, last[:tail])
			if err := bf.WriteBlocks(goodBlocks-1, clean); err != nil {
				return nil, nil, WALInfo{}, fmt.Errorf("store: scrub torn WAL tail %s: %w", name, err)
			}
		}
	}
	var last uint64
	if len(recs) > 0 {
		last = recs[len(recs)-1].LSN
	}
	w := &WAL{bf: bf, bs: bs, backend: backend, nextLSN: last + 1, appended: last, durable: last}
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

// Append buffers one record and returns its LSN. The record is NOT
// durable until a Commit covering the LSN returns; callers must not
// acknowledge the mutation before then. Appends never block on I/O.
func (w *WAL) Append(kind uint8, payload []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	w.nextLSN++
	w.appendFrame(lsn, kind, payload)
	return lsn
}

// appendFrame buffers one frame in the pending batch. A batch starts on
// a block boundary, so its length is the offset within the block. A
// frame never starts in the last three bytes of a block, where its
// length word would straddle the boundary: those bytes stay zero, which
// readers skip as padding — exactly like the tail of a batch that ended
// there.
func (w *WAL) appendFrame(lsn uint64, kind uint8, payload []byte) {
	if rem := w.bs - len(w.pending)%w.bs; rem < 4 {
		w.pending = append(w.pending, make([]byte, rem)...)
	}
	w.pending = append(w.pending, encodeWALFrame(lsn, kind, payload)...)
	w.appended = lsn
	metricWALAppends.Inc()
}

// AppendRecord buffers a record that already carries its LSN — the
// shipping path, which transplants frames from a source log while
// preserving the source's LSN sequence so checkpoint watermarks keep
// lining up on the destination. The LSN must advance past everything
// appended so far; LSN assignment resumes after it. Like Append, the
// record is not durable until a covering Commit returns.
func (w *WAL) AppendRecord(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if rec.LSN <= w.appended {
		return fmt.Errorf("store: shipped LSN %d not after appended %d", rec.LSN, w.appended)
	}
	w.appendFrame(rec.LSN, rec.Kind, rec.Payload)
	w.nextLSN = rec.LSN + 1
	return nil
}

// Commit makes every record up to and including lsn durable: it writes
// everything buffered so far as one batch, zero-padded to a whole block
// so durable blocks are never rewritten (the next batch starts on a fresh
// block boundary), and fsyncs. A commit whose LSN an earlier flush
// covered returns without I/O.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.durable >= lsn {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	if batch := w.pending; len(batch) > 0 {
		w.pending = nil
		if rem := len(batch) % w.bs; rem != 0 {
			batch = append(batch, make([]byte, w.bs-rem)...)
		}
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
