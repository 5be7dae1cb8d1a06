package store

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Session is one query's view of the store. It tracks the head position
// and accumulates Stats; when the store has a buffer pool attached, reads
// are served from it block by block and only the missing runs are charged
// and fetched from the backend.
//
// A Session is not safe for concurrent use; run one per goroutine (many
// concurrent sessions may share one store and its pool). Instead of
// panicking on I/O failure, a session carries a sticky error: the first
// failed read poisons it, every later read returns the same error, and
// Err exposes it for boundary checks.
type Session struct {
	st      *Store
	pool    *BufferPool // captured at creation; nil = uncached
	cur     *File       // file under the head
	head    int         // next block under the head within cur
	started bool
	Stats   Stats
	tr      *obs.QueryTrace // nil = no observation (the common case)
	ctx     context.Context // nil = never canceled
	retry   RetryPolicy     // captured from the store at creation/Reset
	err     error

	// scratch is an opaque slot for query-layer scratch state (reusable
	// buffers, arenas) that must follow the session through pooled reuse.
	// It survives Reset: scratch holders are responsible for their own
	// per-query re-initialization.
	scratch any
}

// Scratch returns the session's scratch slot (nil until SetScratch).
func (s *Session) Scratch() any { return s.scratch }

// SetScratch stores an opaque scratch value on the session. The slot
// survives Reset, so query layers can keep warmed buffers across pooled
// queries.
func (s *Session) SetScratch(v any) { s.scratch = v }

// SetTrace attaches a trace that records every cost event the session
// charges (and the zero-cost buffer-pool hits), per file: it is the
// session's per-level ledger, and its totals equal
// Stats. Pass nil to detach; with none attached the charge paths pay a
// nil check.
func (s *Session) SetTrace(t *obs.QueryTrace) { s.tr = t }

// Trace returns the attached trace (nil if none).
func (s *Session) Trace() *obs.QueryTrace { return s.tr }

// SetContext attaches a context to the session: every Read checks it
// first and fails with an error wrapping both ErrCanceled and the
// context's cause once it is done. Page fetches are the unit of work of
// a query, so this bounds how long a canceled query keeps running. Pass
// nil to detach.
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

// Context returns the attached context (nil if none).
func (s *Session) Context() context.Context { return s.ctx }

// Err returns the session's sticky error: the first read that failed, or
// nil. Query code that ignores per-read errors must check it before
// trusting the (possibly partial) results.
func (s *Session) Err() error { return s.err }

// Recover clears the session's sticky error so a caller with its own
// recovery path (e.g. the index layer quarantining a corrupt page and
// answering from the exact level) can continue the query. The charges
// accumulated so far are kept — recovery is degraded cost, not free.
func (s *Session) Recover() { s.err = nil }

// Reset returns the session to its freshly created state so it can be
// reused for another query: the sticky error, stats, head position, and
// trace are all cleared, and the store's current buffer pool is
// re-captured (a pool attached after the session was created becomes
// visible). The scratch slot is kept so pooled reuse reaches a
// zero-allocation steady state. Pooled reuse (e.g. by the query engine's
// workers) must Reset between queries or one query's failure and
// charges leak into the next.
func (s *Session) Reset() {
	s.pool = s.st.Pool()
	s.cur = nil
	s.head = 0
	s.started = false
	s.Stats = Stats{}
	s.tr = nil
	s.ctx = nil
	s.retry = s.st.retryPolicy()
	s.err = nil
}

// fail records err as the session's sticky error (first one wins) and
// returns it.
func (s *Session) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// charge bills one contiguous backend read and moves the head: a seek is
// charged unless the head is already at (f, pos). tier tells an attached
// trace whether the read went straight to the backend or filled a
// buffer-pool miss.
func (s *Session) charge(f *File, pos, nblocks int, tier obs.ReadTier) {
	seeks := 0
	if !s.started || s.cur != f || s.head != pos {
		seeks = 1
	}
	s.started = true
	s.Stats.Seeks += seeks
	s.Stats.BlocksRead += nblocks
	s.Stats.Reads++
	s.cur = f
	s.head = pos + nblocks
	if s.tr != nil {
		s.tr.ObserveRead(f.Name(), seeks, nblocks, tier)
	}
}

// ChargeWrite bills one charged write operation against file f: seeks
// seeks plus blocks transferred, recorded in any attached trace under the
// file. Maintenance paths (page rewrites) use it so updates show up in
// the same per-level decomposition as reads. The head position is left
// untouched: the simulated cost model bills every write a full seek,
// matching the historical accounting.
func (s *Session) ChargeWrite(f *File, seeks, blocks int) {
	s.Stats.Seeks += seeks
	s.Stats.BlocksRead += blocks
	if s.tr != nil {
		name := ""
		if f != nil {
			name = f.Name()
		}
		s.tr.ObserveWrite(name, seeks, blocks)
	}
}

// Read transfers nblocks starting at block pos of file f and returns the
// raw bytes. Without a pool it charges a seek unless the head is already
// at (f, pos); with a pool, cached blocks charge nothing and only the
// missing runs are fetched (and billed) from the backend. The returned
// slice must not be mutated.
func (s *Session) Read(f *File, pos, nblocks int) ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.ctx != nil {
		if cerr := s.ctx.Err(); cerr != nil {
			return nil, s.fail(fmt.Errorf("%w: %w", ErrCanceled, cerr))
		}
	}
	if f == nil {
		return nil, s.fail(errors.New("store: read from nil file"))
	}
	if nblocks <= 0 {
		return nil, s.fail(fmt.Errorf("store: read of %d blocks from %s", nblocks, f.Name()))
	}
	if pos < 0 || pos+nblocks > f.Blocks() {
		return nil, s.fail(fmt.Errorf("store: read past end of %s: pos=%d n=%d blocks=%d",
			f.Name(), pos, nblocks, f.Blocks()))
	}
	if s.pool == nil {
		data, err := s.backendRead(f, pos, nblocks)
		if err != nil {
			return nil, s.fail(fmt.Errorf("store: read %s [%d,+%d): %w", f.Name(), pos, nblocks, err))
		}
		s.charge(f, pos, nblocks, obs.ReadBackend)
		return data, nil
	}
	return s.readPooled(f, pos, nblocks)
}

// backendRead fetches one contiguous run from the backend, retrying
// transient failures under the session's retry policy and verifying the
// result against the checksum sidecar (when enabled) before anyone —
// including the buffer pool — sees the bytes. Checksum failures are
// never retried: the corruption is at rest, and re-reading the same
// damaged block would only mask a latent error as a flaky one.
func (s *Session) backendRead(f *File, pos, nblocks int) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		data, err := f.ReadRaw(pos, nblocks)
		if err == nil {
			return data, nil
		}
		if !IsTransient(err) || attempt >= s.retry.MaxRetries {
			if IsTransient(err) {
				metricRetriesExhausted.Inc()
			}
			return nil, err
		}
		metricReadRetries.Inc()
		if d := s.retry.delay(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// readPooled assembles the requested range from pool frames plus backend
// reads for the missing runs. Each miss run is charged like an uncached
// read (head tracking included); hits charge zero seek/transfer and are
// recorded in an attached trace as ReadPoolHit.
func (s *Session) readPooled(f *File, pos, nblocks int) ([]byte, error) {
	bs := s.st.Config().BlockSize
	dst := make([]byte, nblocks*bs)
	misses, gen := s.pool.gather(f.Name(), pos, nblocks, bs, dst)
	missed := 0
	for _, run := range misses {
		data, err := s.backendRead(f, run.pos, run.n)
		if err != nil {
			return nil, s.fail(fmt.Errorf("store: read %s [%d,+%d): %w", f.Name(), run.pos, run.n, err))
		}
		copy(dst[(run.pos-pos)*bs:], data[:run.n*bs])
		s.charge(f, run.pos, run.n, obs.ReadPoolMiss)
		s.pool.fill(f.Name(), f.first.Load(), run.pos, bs, data[:run.n*bs], gen)
		missed += run.n
	}
	if s.tr != nil && missed < nblocks {
		s.tr.ObserveRead(f.Name(), 0, nblocks-missed, obs.ReadPoolHit)
	}
	return dst, nil
}

// ReadRange transfers the blocks covering the byte range [off, off+n) of
// file f and returns those blocks plus the offset of the range within the
// returned slice.
func (s *Session) ReadRange(f *File, off, n int) (data []byte, rel int, err error) {
	bs := s.st.Config().BlockSize
	first := off / bs
	last := (off + n - 1) / bs
	blk, err := s.Read(f, first, last-first+1)
	if err != nil {
		return nil, 0, err
	}
	return blk, off - first*bs, nil
}

// chargeCPU adds seconds to Stats and records the charge in any attached
// trace under file f ("" when f is nil: unattributed).
func (s *Session) chargeCPU(f *File, kind obs.CPUKind, seconds float64) {
	s.Stats.CPUSeconds += seconds
	if s.tr != nil {
		name := ""
		if f != nil {
			name = f.Name()
		}
		s.tr.ObserveCPU(name, kind, seconds)
	}
}

// ChargeDistCPU charges the CPU cost of n exact distance computations in
// dim dimensions, attributed to file f — conventionally the file whose
// blocks produced the points being compared (nil = aggregate only).
func (s *Session) ChargeDistCPU(f *File, dim, n int) {
	s.chargeCPU(f, obs.CPUDist, s.st.Config().DistCPU*float64(dim)*float64(n))
}

// ChargeApproxCPU charges the CPU cost of decoding and bounding n
// quantized approximations in dim dimensions, attributed to file f
// (nil = aggregate only).
func (s *Session) ChargeApproxCPU(f *File, dim, n int) {
	s.chargeCPU(f, obs.CPUApprox, s.st.Config().ApproxCPU*float64(dim)*float64(n))
}

// Time returns the session's total simulated time so far, in seconds.
func (s *Session) Time() float64 { return s.Stats.Time(s.st.Config()) }
