package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/vec"
)

// Write path: a dedicated queue and a single writer goroutine beside the
// read pool. Writes pass the same admission as queries (intake: the
// closed check, bounded queue wait, shedding and context cancellation)
// but drain on their own lane, because the index serializes mutations
// internally anyway: more write workers would only contend.
//
// The writer coalesces adjacent queued inserts into one InsertBatch call
// (up to writeCoalesceMax points). On a WAL-mode tree that turns a burst
// of single-point submissions into one logical record and one commit,
// which is where ingest throughput comes from; every submitter
// still gets its own acknowledgement, and an acknowledgement still means
// applied (and durable when the index logs).

// ErrNoWrites is returned by SubmitWrite when the engine was built
// without WithWrites or its index does not implement Mutator.
var ErrNoWrites = errors.New("engine: no write path configured")

// ErrInvalidWrite marks a write rejected at submission because its shape
// cannot be executed. The write never reaches the writer.
var ErrInvalidWrite = errors.New("engine: invalid write")

// writeCoalesceMax caps how many points the writer folds into one
// InsertBatch call when draining a burst of queued inserts.
const writeCoalesceMax = 64

// Mutator is the write contract an index must implement for the
// engine's write path; *core.Tree satisfies it.
type Mutator interface {
	InsertBatch(s *store.Session, pts []vec.Point, ids []uint32) error
	Delete(s *store.Session, p vec.Point, id uint32) (bool, error)
}

// WriteKind selects the operation of a Write.
type WriteKind int

const (
	WriteInsert WriteKind = iota
	WriteDelete
)

// Write is one unit of mutation work: points to insert, or (point, id)
// pairs to delete.
type Write struct {
	Kind   WriteKind
	Points []vec.Point
	IDs    []uint32

	// Ctx, when non-nil, bounds the wait for queue space. A write that
	// reached the writer is applied even if its context expires
	// mid-application — a partially visible mutation would be worse than
	// a late one.
	Ctx context.Context
}

// Validate checks the write's shape, returning an error wrapping
// ErrInvalidWrite for writes that cannot be executed.
func (w Write) Validate() error {
	if w.Kind != WriteInsert && w.Kind != WriteDelete {
		return fmt.Errorf("%w: unknown kind %d", ErrInvalidWrite, int(w.Kind))
	}
	if len(w.Points) == 0 {
		return fmt.Errorf("%w: no points", ErrInvalidWrite)
	}
	if len(w.Points) != len(w.IDs) {
		return fmt.Errorf("%w: %d points, %d ids", ErrInvalidWrite, len(w.Points), len(w.IDs))
	}
	for i, p := range w.Points {
		if p == nil {
			return fmt.Errorf("%w: nil point at %d", ErrInvalidWrite, i)
		}
	}
	return nil
}

// WriteResult is the outcome of one Write.
type WriteResult struct {
	Found   int   // delete: pairs found and removed; insert: points added
	Err     error // nil means every point was applied (durably, in WAL mode)
	Wall    time.Duration
	SimTime float64
	Stats   store.Stats
}

type writeJob struct {
	w    Write
	res  *WriteResult
	done *sync.WaitGroup
}

// WithWrites enables the engine's write path. The index must implement
// Mutator, or every SubmitWrite fails with ErrNoWrites.
func WithWrites() Option {
	return func(e *Engine) { e.writesOn = true }
}

// SubmitWrite applies one write through the engine's writer and blocks
// until it is applied (and, on a WAL-mode index, durable). Admission is
// Submit's (see intake): ErrClosed after Close, ErrOverloaded when the
// write queue stays full past the queue wait, ErrCanceled when the
// context expires while waiting, and ErrInvalidWrite for malformed
// shapes.
func (e *Engine) SubmitWrite(w Write) WriteResult {
	var res WriteResult
	var done sync.WaitGroup
	err := e.validateWrite(w)
	if err == nil {
		err = intake(w.Ctx, e, e.writeQueue, e.writeQueueDepth, &done, writeJob{w: w, res: &res, done: &done})
	}
	if err != nil {
		return WriteResult{Err: err}
	}
	done.Wait()
	return res
}

// validateWrite checks that the engine takes writes and that w has a
// valid shape and the index's dimensionality.
func (e *Engine) validateWrite(w Write) error {
	if e.mut == nil {
		return ErrNoWrites
	}
	if err := w.Validate(); err != nil {
		return err
	}
	// A point of another dimensionality would fail every write coalesced
	// into its InsertBatch, so it is rejected before it can join one.
	for i, p := range w.Points {
		if dim := e.idx.Dim(); len(p) != dim {
			return fmt.Errorf("%w: %d-d point at %d on a %d-d index", ErrInvalidWrite, len(p), i, dim)
		}
	}
	return nil
}

// writer drains the write queue until Close, coalescing insert bursts.
func (e *Engine) writer() {
	defer e.wg.Done()
	for j := range e.writeQueue {
		e.writeQueueDepth.Add(-1)
		batch := []writeJob{j}
		if j.w.Kind == WriteInsert {
			// Fold queued inserts in, up to the coalescing cap. Stop after
			// taking a delete: reordering a delete around a later insert
			// could change which version of an id dies.
			points := len(j.w.Points)
		coalesce:
			for points < writeCoalesceMax {
				select {
				case nj, ok := <-e.writeQueue:
					if !ok {
						break coalesce
					}
					e.writeQueueDepth.Add(-1)
					batch = append(batch, nj)
					if nj.w.Kind != WriteInsert {
						break coalesce
					}
					points += len(nj.w.Points)
				default:
					break coalesce
				}
			}
		}
		e.applyWrites(batch)
	}
}

// applyWrites executes a drained run of write jobs: the inserts as one
// InsertBatch, then any trailing delete pair-by-pair, preserving the
// queue's relative insert/delete order. Every job gets its own result
// and acknowledgement.
func (e *Engine) applyWrites(batch []writeJob) {
	s := e.sessions.Get().(*store.Session)
	s.Reset()
	start := time.Now()

	var inserts []writeJob
	for _, j := range batch {
		if j.w.Kind == WriteInsert {
			inserts = append(inserts, j)
		}
	}
	if len(inserts) > 0 {
		var pts []vec.Point
		var ids []uint32
		for _, j := range inserts {
			pts = append(pts, j.w.Points...)
			ids = append(ids, j.w.IDs...)
		}
		err := e.mut.InsertBatch(s, pts, ids)
		for _, j := range inserts {
			j.res.Err = err
			if err == nil {
				j.res.Found = len(j.w.Points)
			}
		}
		e.writeBatches.Inc()
	}
	for _, j := range batch {
		if j.w.Kind != WriteDelete {
			continue
		}
		for i := range j.w.Points {
			ok, err := e.mut.Delete(s, j.w.Points[i], j.w.IDs[i])
			if err != nil {
				j.res.Err = err
				break
			}
			if ok {
				j.res.Found++
			}
		}
	}

	wall := time.Since(start)
	sim := s.Time()
	stats := s.Stats
	sessionErr := s.Err()
	for _, j := range batch {
		if j.res.Err == nil {
			j.res.Err = sessionErr
		}
		j.res.Wall = wall
		j.res.SimTime = sim
		j.res.Stats = stats
		e.writeCount.Inc()
		if j.res.Err != nil {
			e.writeFailures.Inc()
		}
		j.done.Done()
	}
	if sessionErr == nil {
		e.sessions.Put(s)
	}
}

// Writable reports whether the engine accepts writes (WithWrites was set
// and the index implements Mutator).
func (e *Engine) Writable() bool { return e.mut != nil }
