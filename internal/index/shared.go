package index

import (
	"errors"

	"repro/internal/store"
	"repro/internal/vec"
)

// ErrStaleScan ends a shared-scan cursor whose pinned state was
// invalidated by an index reorganization that rewrites file regions in
// place. The coordinator recovers by restarting the affected query on a
// fresh cursor; results stay exact, only the cost of the aborted attempt
// is kept.
var ErrStaleScan = errors.New("index: shared scan invalidated by reorganization")

// ErrPanicked marks a query whose execution panicked. A fetch round
// contains the panic to the one query that raised it, so co-scheduled
// queries still answer.
var ErrPanicked = errors.New("index: query panicked")

// Cursor is one query suspended at its page-fetch boundary, advanced by
// the rounds of the SharedScan that began it. A cursor belongs to one
// coordinator goroutine; none of its methods are safe for concurrent use.
type Cursor interface {
	// Done reports whether the query ended: it completed, failed, or was
	// invalidated (ErrStaleScan) or contained after a panic (ErrPanicked).
	Done() bool
	// Results returns the query's final answer or the error that ended
	// it; valid only once Done reports true.
	Results() ([]vec.Neighbor, error)
	// Close releases any cursor-held resources. Must be called once the
	// cursor is abandoned or finished.
	Close()
}

// SharedScan is a per-coordinator handle for scan-sharing query
// execution over one index: it begins cursors and runs the fetch rounds
// that advance them. The handle owns round-scoped scratch, so it must be
// confined to one coordinator goroutine; cursors from different handles
// over the same index are still isolated.
type SharedScan interface {
	// KNN, Range and Window begin one resumable query charged to s. KNN
	// runs at the recall target minRecall, as ApproxSearcher.KNNApprox
	// does; minRecall = 0 (or 1) is exact k-NN search.
	KNN(s *store.Session, q vec.Point, k int, minRecall float64) Cursor
	Range(s *store.Session, q vec.Point, eps float64) Cursor
	Window(s *store.Session, w vec.MBR) Cursor
	// Round advances every cursor that is not Done by one fetch round:
	// each steps to its next page-fetch boundary, the union of their
	// wanted pages is planned as one deduplicated read schedule, each
	// span is read once through one query's session and every page is
	// offered to all of them. It reports the pages read and how many
	// times a query consumed one. Every cursor must come from this handle.
	Round(cs []Cursor) (pages, serves int)
}

// SharedScanner is implemented by indexes that support scan-sharing
// execution. Indexes without it are served share-nothing by the engine
// regardless of its sharing mode.
type SharedScanner interface {
	Index
	NewSharedScan() SharedScan
}
