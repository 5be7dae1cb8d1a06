package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL shipping: the replica catch-up path of the shard coordinator
// (DESIGN.md §15). A Shipper copies one replica's directory — data files
// raw, logs frame-by-frame with CRC verification — onto a fresh backend
// (ShipAll), then streams mutation-log tail frames by LSN (ShipTail)
// until the destination has caught up enough to be reopened and
// readmitted. Both directions operate on BlockStore backends directly:
// shipping is replication plumbing, not query work, so it charges no
// session and bypasses any cache.
//
// Consistency against a live source: within one generation, data files
// only grow and committed log blocks are never rewritten, so a copy that
// reads the checkpoint log BEFORE the data files can only observe data
// extents at or beyond the checkpoint's — recovery truncates the excess.
// The one hazard is a checkpoint (or a generation swap) completing
// mid-copy: it may reset the mutation log, leaving the copy's checkpoint
// too old for the records that survive. ShipAll detects this by
// fingerprinting every log before and after the copy and restarts;
// ShipTail surfaces it as ErrShipGap, telling the caller the records it
// needs were consumed by a checkpoint and only a fresh ShipAll can help.

// walReadChunk is how many blocks a WALReader fetches per backend read.
const walReadChunk = 64

// ErrShipGap reports that a WAL tail ship cannot proceed because the
// source log no longer holds the record after the destination's last
// shipped LSN — a checkpoint consumed it. The destination must restart
// from a full ShipAll, whose checkpoint then covers the missing range.
var ErrShipGap = errors.New("store: WAL shipping gap")

// ErrShipUnstable reports that ShipAll kept observing checkpoint or
// generation activity on the source across its bounded restarts.
var ErrShipUnstable = errors.New("store: source checkpointed during every shipping attempt")

// WALReader streams the valid frame prefix of a write-ahead log,
// verifying each frame's CRC32C and LSN monotonicity, and yielding the
// records with LSN strictly greater than a starting watermark. It is the
// log's only frame parser: recovery (OpenWAL) and inspection (InspectWAL)
// scan through it too. It reads the extent snapshotted at creation:
// frames flushed later are not visible, and a frame torn at (or running
// past) that extent ends the stream with Torn reporting true.
type WALReader struct {
	bf   BlockFile
	bs   int
	end  int // extent (in blocks) snapshotted at creation
	from uint64

	buf  []byte
	off  int // parse offset into buf
	base int // absolute byte offset of buf[0]
	pos  int // next block to fetch
	good int // absolute byte offset one past the last valid frame or padding
	seen uint64
	torn bool
	done bool
}

// NewWALReader opens a streaming reader over the named log on backend,
// yielding records with LSN > from. A missing file is an empty stream.
func NewWALReader(backend BlockStore, name string, from uint64) *WALReader {
	r := &WALReader{bs: backend.Config().BlockSize, from: from}
	if bf := backend.Lookup(name); bf != nil {
		r.bf = bf
		r.end = bf.Blocks()
	}
	return r
}

// fill ensures n unparsed bytes are buffered, fetching more blocks as
// needed. io.EOF means the snapshotted extent cannot supply n bytes.
func (r *WALReader) fill(n int) error {
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

// Next returns the next record with LSN > from, or io.EOF at the end of
// the valid prefix. A damaged or torn frame ends the stream (Torn then
// reports true); torn frames are never yielded, mirroring recovery.
func (r *WALReader) Next() (WALRecord, error) {
	if r.done || r.bf == nil {
		return WALRecord{}, io.EOF
	}
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
		if lsn <= r.from {
			continue
		}
		return WALRecord{
			LSN:     lsn,
			Kind:    frame[16],
			Payload: append([]byte(nil), frame[walHeaderSize:]...),
		}, nil
	}
}

// anyNonZero reports whether any of the next n buffered bytes (clamped
// to what is buffered) is non-zero.
func (r *WALReader) anyNonZero(n int) bool {
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
func (r *WALReader) finish(torn bool) (WALRecord, error) {
	r.done = true
	r.torn = torn
	r.buf = nil
	return WALRecord{}, io.EOF
}

// Torn reports whether the stream ended at a damaged frame rather than
// the clean end of the log. Meaningful once Next returned io.EOF.
func (r *WALReader) Torn() bool { return r.torn }

// LastLSN returns the LSN of the last valid frame scanned (yielded or
// skipped by the watermark).
func (r *WALReader) LastLSN() uint64 { return r.seen }

// Shipper transfers one replica directory's files from a source backend
// to a destination backend.
type Shipper struct {
	Src, Dst BlockStore
	// TailWAL names the mutation log, the one WAL whose growth during a
	// copy is benign (the destination merely lags — no gap). Growth or
	// shrinkage of any other log means a checkpoint or generation swap
	// landed mid-copy and the copy must restart. Empty means every log
	// change forces a restart.
	TailWAL string
	// MaxAttempts bounds ShipAll restarts (default 5). A restart is only
	// needed when the source checkpoints or swaps generations mid-copy,
	// so the bound is about liveness, not correctness.
	MaxAttempts int
	// ChunkBlocks is the raw-copy granularity in blocks (default 256).
	ChunkBlocks int
}

// ShipReport summarizes one shipping operation.
type ShipReport struct {
	Files    int // non-WAL files copied
	Blocks   int // raw blocks copied
	WALFiles int // logs copied (ShipAll) or appended to (ShipTail)
	Records  int // log records shipped
	LastLSN  uint64
	Attempts int  // ShipAll copy passes (1 = no mid-copy checkpoint)
	SrcTorn  bool // a source log ended in a torn frame (discarded)
}

// add folds o into r.
func (r *ShipReport) add(o ShipReport) {
	r.Files += o.Files
	r.Blocks += o.Blocks
	r.WALFiles += o.WALFiles
	r.Records += o.Records
	if o.LastLSN > r.LastLSN {
		r.LastLSN = o.LastLSN
	}
	r.SrcTorn = r.SrcTorn || o.SrcTorn
}

// walPrint fingerprints one log for the stability check.
type walPrint struct {
	records  int
	firstLSN uint64
	lastLSN  uint64
}

// walPrints fingerprints every log on the source.
func (sh *Shipper) walPrints() (map[string]walPrint, error) {
	out := make(map[string]walPrint)
	for _, name := range sh.Src.Names() {
		if !IsWALFile(name) {
			continue
		}
		info, _, err := InspectWAL(sh.Src, name)
		if err != nil {
			return nil, err
		}
		out[name] = walPrint{records: info.Records, firstLSN: info.FirstLSN, lastLSN: info.LastLSN}
	}
	return out, nil
}

// stable reports whether the source's logs moved only in benign ways
// between the pre- and post-copy fingerprints: the tail log may grow
// (same first LSN, no fewer records), every other log must be untouched
// and no log may appear or disappear.
func (sh *Shipper) stable(pre, post map[string]walPrint) bool {
	if len(pre) != len(post) {
		return false
	}
	for name, p := range pre {
		q, ok := post[name]
		if !ok {
			return false
		}
		if name == sh.TailWAL {
			if q.records < p.records {
				return false
			}
			if p.records > 0 && q.firstLSN != p.firstLSN {
				return false
			}
			continue
		}
		if q != p {
			return false
		}
	}
	return true
}

// ShipAll copies the source directory onto the destination: every log
// frame-verified (only the valid prefix survives, re-packed without
// padding), every other file — checksum sidecars included — as raw
// blocks. The destination is wiped first, so a failed or restarted pass
// leaves no half-mixed state. On a live source the copy restarts, up to
// MaxAttempts, whenever the log fingerprints reveal a mid-copy
// checkpoint or generation swap; the returned report's LastLSN is the
// highest mutation-log LSN shipped (the watermark to resume ShipTail
// from — the embedded checkpoint may cover more).
func (sh *Shipper) ShipAll() (ShipReport, error) {
	attempts := sh.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	var rep ShipReport
	var lastErr error
	for a := 0; a < attempts; a++ {
		pre, err := sh.walPrints()
		if err != nil {
			lastErr = err
			continue
		}
		rep = ShipReport{Attempts: a + 1}
		if err := sh.copyAll(&rep); err != nil {
			// A concurrent generation swap removes source files mid-copy;
			// that read error is exactly the restart case.
			lastErr = err
			continue
		}
		post, err := sh.walPrints()
		if err != nil {
			lastErr = err
			continue
		}
		if sh.stable(pre, post) {
			return rep, nil
		}
		lastErr = nil
	}
	if lastErr != nil {
		return rep, fmt.Errorf("store: ship all (after %d attempts): %w", attempts, lastErr)
	}
	return rep, fmt.Errorf("%w (%d attempts)", ErrShipUnstable, attempts)
}

// copyAll performs one full copy pass. Logs are copied before data files
// so the pinned checkpoint's extents can only be met or exceeded by the
// data copied after it.
func (sh *Shipper) copyAll(rep *ShipReport) error {
	for _, name := range sh.Dst.Names() {
		if err := sh.Dst.Remove(name); err != nil {
			return fmt.Errorf("store: ship wipe %s: %w", name, err)
		}
	}
	names := sh.Src.Names()
	for _, name := range names {
		if !IsWALFile(name) {
			continue
		}
		r, err := sh.copyWAL(name)
		if err != nil {
			return err
		}
		rep.add(r)
	}
	for _, name := range names {
		if IsWALFile(name) {
			continue
		}
		r, err := sh.copyRaw(name)
		if err != nil {
			return err
		}
		rep.add(r)
	}
	return nil
}

// copyWAL ships the valid frame prefix of one log. Frames are re-packed
// (source padding dropped, fresh CRCs) with their LSNs preserved, which
// recovery treats identically to the source layout. LastLSN is reported
// only for the tail log — checkpoint logs number their own LSN sequence.
func (sh *Shipper) copyWAL(name string) (ShipReport, error) {
	rep := ShipReport{WALFiles: 1}
	reader := NewWALReader(sh.Src, name, 0)
	w, err := CreateWAL(sh.Dst, name)
	if err != nil {
		return rep, err
	}
	var last uint64
	for {
		rec, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, fmt.Errorf("store: ship %s: %w", name, err)
		}
		if err := w.AppendRecord(rec); err != nil {
			return rep, err
		}
		rep.Records++
		last = rec.LSN
	}
	rep.SrcTorn = reader.Torn()
	if rep.Records > 0 {
		if err := w.Commit(last); err != nil {
			return rep, err
		}
		if name == sh.TailWAL {
			rep.LastLSN = last
		}
	}
	return rep, nil
}

// copyRaw block-copies one non-WAL file.
func (sh *Shipper) copyRaw(name string) (ShipReport, error) {
	rep := ShipReport{Files: 1}
	chunk := sh.ChunkBlocks
	if chunk <= 0 {
		chunk = 256
	}
	src := sh.Src.Lookup(name)
	if src == nil {
		return rep, fmt.Errorf("store: ship %s: source file vanished", name)
	}
	dst, err := sh.Dst.Create(name)
	if err != nil {
		return rep, err
	}
	blocks := src.Blocks()
	for pos := 0; pos < blocks; pos += chunk {
		n := blocks - pos
		if n > chunk {
			n = chunk
		}
		data, err := src.ReadBlocks(pos, n)
		if err != nil {
			return rep, fmt.Errorf("store: ship %s block %d: %w", name, pos, err)
		}
		if _, _, err := dst.Append(data); err != nil {
			return rep, fmt.Errorf("store: ship %s append: %w", name, err)
		}
		rep.Blocks += n
	}
	return rep, nil
}

// ShipTail streams mutation-log records with LSN > from onto the
// destination's same-named log and commits them. The destination may
// already hold records past from (a previous ship that the caller lost
// track of); shipping resumes after whichever watermark is higher. A
// source log whose first needed record is gone returns ErrShipGap;
// Records == 0 with no error means the source simply has nothing newer —
// when the caller knows the source has applied more, that too means the
// records were consumed by a checkpoint (treat as a gap).
func (sh *Shipper) ShipTail(name string, from uint64) (ShipReport, error) {
	rep := ShipReport{WALFiles: 1}
	w, _, info, err := OpenWAL(sh.Dst, name)
	if err != nil {
		return rep, err
	}
	if info.LastLSN > from {
		from = info.LastLSN
	}
	reader := NewWALReader(sh.Src, name, from)
	first := true
	for {
		rec, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, fmt.Errorf("store: ship tail %s: %w", name, err)
		}
		if first && rec.LSN != from+1 {
			return rep, fmt.Errorf("%w: need LSN %d of %s, source starts at %d",
				ErrShipGap, from+1, name, rec.LSN)
		}
		first = false
		if err := w.AppendRecord(rec); err != nil {
			return rep, err
		}
		rep.Records++
		rep.LastLSN = rec.LSN
	}
	rep.SrcTorn = reader.Torn()
	if rep.Records > 0 {
		if err := w.Commit(rep.LastLSN); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
