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
// does no grouping of its own — every writer is already serialized,
// and the engine's write lane is the one batching point: it coalesces a
// burst of inserts into one InsertBatch, one record and one commit.
// Recovery scans the log from the front, stops at the first frame that
// fails its CRC (or breaks LSN monotonicity), and truncates that torn
// tail — torn records are never replayed.
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

// scanWAL reads the valid frame prefix of bf with a walReader, the one
// frame parser of recovery and inspection. It returns the records, the
// byte offset one past the last valid frame (or padding run), and
// whether the scan stopped at a torn tail.
func scanWAL(bf BlockFile, bs int) (recs []WALRecord, goodEnd int, torn bool, err error) {
	r := &walReader{bf: bf, bs: bs, end: bf.Blocks()}
	for {
		rec, err := r.next()
		if err == io.EOF {
			return recs, r.good, r.torn, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		recs = append(recs, rec)
	}
}

// walReadChunk is how many blocks a walReader fetches per backend read.
const walReadChunk = 64

// walReader streams the valid frame prefix of a write-ahead log,
// verifying each frame's CRC32C and LSN monotonicity. It reads the
// extent it was given: a frame torn at (or running past) that extent
// ends the stream with torn set.
type walReader struct {
	bf  BlockFile
	bs  int
	end int // extent in blocks

	buf  []byte
	off  int // parse offset into buf
	base int // absolute byte offset of buf[0]
	pos  int // next block to fetch
	good int // absolute byte offset one past the last valid frame or padding
	seen uint64
	torn bool
}

// fill ensures n unparsed bytes are buffered, fetching more blocks as
// needed. io.EOF means the extent cannot supply n bytes.
func (r *walReader) fill(n int) error {
	if len(r.buf)-r.off >= n {
		return nil
	}
	if k := r.off / r.bs; k > 0 { // drop fully parsed blocks
		r.buf = r.buf[k*r.bs:]
		r.base += k * r.bs
		r.off -= k * r.bs
	}
	for len(r.buf)-r.off < n && r.pos < r.end {
		chunk := r.end - r.pos
		if chunk > walReadChunk {
			chunk = walReadChunk
		}
		data, err := r.bf.ReadBlocks(r.pos, chunk)
		if err != nil {
			return err
		}
		r.buf = append(r.buf, data...)
		r.pos += chunk
	}
	if len(r.buf)-r.off < n {
		return io.EOF
	}
	return nil
}

// next returns the next record, or io.EOF at the end of the valid
// prefix, after which it must not be called again. A damaged or torn
// frame ends the stream (torn is then set); torn frames are never
// yielded.
func (r *walReader) next() (WALRecord, error) {
	le := binary.LittleEndian
	for {
		if err := r.fill(1); err != nil {
			if err == io.EOF {
				return r.finish(false)
			}
			return WALRecord{}, err
		}
		// Blocks are buffered whole, so the rest of this block is present.
		// A zero length field, or a zero remainder too short to hold one,
		// is padding: skip to the next block boundary.
		pad := r.bs - (r.base+r.off)%r.bs
		if !r.anyNonZero(min(pad, 4)) {
			if r.anyNonZero(pad) {
				return r.finish(true)
			}
			r.off += pad
			r.good = r.base + r.off
			continue
		}
		if err := r.fill(4); err != nil {
			if err == io.EOF { // length field runs past the extent: torn tail
				return r.finish(true)
			}
			return WALRecord{}, err
		}
		length := int(le.Uint32(r.buf[r.off:]))
		if length < walHeaderSize {
			return r.finish(true)
		}
		if err := r.fill(length); err != nil {
			if err == io.EOF { // frame runs past the extent: torn tail
				return r.finish(true)
			}
			return WALRecord{}, err
		}
		frame := r.buf[r.off : r.off+length]
		if crc32.Checksum(frame[8:], castagnoli) != le.Uint32(frame[4:]) {
			return r.finish(true)
		}
		lsn := le.Uint64(frame[8:])
		if lsn <= r.seen {
			return r.finish(true)
		}
		r.seen = lsn
		r.off += length
		r.good = r.base + r.off
		return WALRecord{
			LSN:     lsn,
			Kind:    frame[16],
			Payload: append([]byte(nil), frame[walHeaderSize:]...),
		}, nil
	}
}

// anyNonZero reports whether any of the next n buffered bytes (clamped
// to what is buffered) is non-zero.
func (r *walReader) anyNonZero(n int) bool {
	end := r.off + n
	if end > len(r.buf) {
		end = len(r.buf)
	}
	for i := r.off; i < end; i++ {
		if r.buf[i] != 0 {
			return true
		}
	}
	return false
}

// finish ends the stream.
func (r *walReader) finish(torn bool) (WALRecord, error) {
	r.torn = torn
	return WALRecord{}, io.EOF
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
