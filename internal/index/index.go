// Package index defines the common contract of the repository's access
// methods. The IQ-tree (internal/core), X-tree (internal/xtree), VA-file
// (internal/vafile) and sequential scan (internal/scan) all answer the
// same exact similarity queries over the same block store; this package
// names that shared surface so serving layers (internal/engine) and
// harnesses (internal/experiments) can drive any of them through one
// interface instead of four concrete types. The contract is the three
// queries (KNN, RangeSearch, WindowQuery) plus Len and Dim.
//
// The package depends only on store and vec — it sits below every access
// method, so all of them can implement it without import cycles.
package index

import (
	"errors"

	"repro/internal/store"
	"repro/internal/vec"
)

// ErrPanicked marks a query whose execution panicked. The index contains
// the panic to the one query that raised it and reports it typed, so a
// serving layer can fail that query alone.
var ErrPanicked = errors.New("index: query panicked")

// Index is an exact similarity-search access method over a block store.
// All query methods charge their simulated I/O and CPU to the given
// session and are safe for concurrent use with one session per goroutine
// (sessions themselves are single-goroutine).
type Index interface {
	// KNN returns the k nearest neighbors of q ordered by increasing
	// distance. On a read failure it returns the session's sticky error;
	// a partial result must not be trusted.
	KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error)
	// RangeSearch returns all points within distance eps of q, ordered
	// by increasing distance.
	RangeSearch(s *store.Session, q vec.Point, eps float64) ([]vec.Neighbor, error)
	// WindowQuery returns all points inside the window w (Dist fields
	// are 0; result order is method-defined).
	WindowQuery(s *store.Session, w vec.MBR) ([]vec.Neighbor, error)
	// Len returns the number of indexed points.
	Len() int
	// Dim returns the dimensionality of the indexed points.
	Dim() int
}

// ApproxSearcher is implemented by access methods whose KNN search can
// run at a recall target. Methods without it are always exact — serving
// layers fall back to KNN, which trivially satisfies any recall target
// (recall 1).
type ApproxSearcher interface {
	Index
	// KNNApprox is KNN at the recall target minRecall ∈ [0, 1]. 0 means
	// exact. A value > 0 arms the stopping rule (the paper's
	// access-probability model, Eq. 1–5, turned from a fetch *ordering*
	// into a fetch *stopping* rule): the search may stop fetching pages
	// once the estimated probability that any still-unfetched page
	// improves the current top-k drops below ε = 1 − minRecall. At
	// minRecall = 1 (ε = 0) the rule never fires and the search is
	// bit-identical to KNN; ε at or below pagesched.ProbFloor is
	// indistinguishable from exact execution — that floor is the
	// resolution limit of the dial. The result is always well-formed —
	// min(k, Len()) genuine indexed points with exact distances, ordered
	// by increasing distance — but up to an ε-probability fraction of the
	// exact top-k may be substituted by farther neighbors.
	KNNApprox(s *store.Session, q vec.Point, k int, minRecall float64) ([]vec.Neighbor, error)
}
