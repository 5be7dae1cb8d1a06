package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/pagesched"
	"repro/internal/store"
	"repro/internal/vec"
)

// TestSpanLeaderSkipsCanceled is the regression test for leader
// election: a query whose context is already done must never lead a
// span read (its session would fail the read at the next cancellation
// check, aborting the span for every co-attached query and charging the
// doomed query the transfer). Ended and canceled owners are skipped; the
// first live owner leads.
func TestSpanLeaderSkipsCanceled(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	pts := randPoints(r, 1200, 4)
	tr := buildTree(t, pts, DefaultOptions())
	scan := tr.NewSharedScan().(*sharedScan)
	begin := func(ctx context.Context) cursor {
		s := tr.sto.NewSession()
		s.SetContext(ctx)
		return scan.KNN(s, pts[0], 3, 0).(cursor)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, ended, live := begin(done), begin(nil), begin(nil)
	ended.base().finish(nil)

	rs := &scan.rs
	rs.live = []cursor{canceled, ended, live}
	rs.union = []want{{pos: 3, owner: 0}, {pos: 5, owner: 1}, {pos: 9, owner: 2}}
	rs.wants = []int{3, 5, 9}
	if got := rs.leaderOf(pagesched.PageSpan{First: 0, Last: 10}); got != live {
		t.Fatalf("leader = %v, want the live owner (canceled and ended owners must be skipped)", got)
	}
	if got := rs.leaderOf(pagesched.PageSpan{First: 0, Last: 5}); got != nil {
		t.Fatalf("span with only canceled/ended owners elected leader %v, want nil", got)
	}
	if got := rs.leaderOf(pagesched.PageSpan{First: 9, Last: 9}); got != live {
		t.Fatalf("single-want span: leader = %v, want the live owner", got)
	}
	// An owner with a live (not-yet-done) context leads normally.
	liveCtx := begin(context.Background())
	rs.live[0] = liveCtx
	if got := rs.leaderOf(pagesched.PageSpan{First: 0, Last: 10}); got != liveCtx {
		t.Fatalf("owner with live context skipped: leader = %v", got)
	}
}

// TestRoundContainsCursorPanic puts a cursor that panics — a query of the
// wrong dimensionality, begun directly on the scan — into rounds with
// valid ones: the bad query alone fails, typed index.ErrPanicked, and
// every other query answers exactly as it does alone.
func TestRoundContainsCursorPanic(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	pts := randPoints(r, 2500, 6)
	tr := buildTree(t, pts, DefaultOptions())
	cases := mixedCases(r, 9, 6)
	const bad = 4
	short := vec.Point{0.5, 0.5, 0.5}
	sessions := make([]*store.Session, len(cases))
	for i := range sessions {
		sessions[i] = tr.sto.NewSession()
	}
	results, errs := driveShared(t, tr, sessions,
		func(scan index.SharedScan, i int, s *store.Session) index.Cursor {
			if i == bad {
				return scan.KNN(s, short, 3, 0)
			}
			return newSharedCursor(scan, cases[i], s)
		})
	if !errors.Is(errs[bad], index.ErrPanicked) {
		t.Fatalf("wrong-dimension cursor: err %v, want index.ErrPanicked", errs[bad])
	}
	for i, c := range cases {
		if i == bad {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("%s %d failed beside the panicking cursor: %v", c.kind, i, errs[i])
		}
		sameNeighbors(t, c.kind, results[i], directCase(t, tr, c, tr.sto.NewSession()))
	}
}

// TestDegradedReadsAgreeAcrossDrivers pins the damaged-page rule. With
// every page stored exact (no level-3 shadow), a page corrupted beneath
// the checksum layer is unrecoverable — but only for a query that must
// read it as its pivot. Serving every wanted page of a damaged span
// instead would fail a direct query with ErrUnrecoverable on pages it
// would later prune, where the same query under scan sharing answers.
// For every (corrupt page, query) pair a direct and a shared query must
// either both fail typed or both answer as on the clean tree.
func TestDegradedReadsAgreeAcrossDrivers(t *testing.T) {
	opt := DefaultOptions()
	opt.Quantize = false
	for seed := int64(1); seed <= 4; seed++ {
		sto, tr, _ := buildCheckedTree(t, seed, 3000, 6, opt)
		r := rand.New(rand.NewSource(seed + 100))
		queries := randPoints(r, 8, 6)
		clean := make([][]Neighbor, len(queries))
		for i, q := range queries {
			clean[i] = mustKNN(t, tr, q, 5)
		}
		for _, row := range tr.DescribePages() {
			flipQPageBit(t, sto, row.QPos)
			sessions := make([]*store.Session, len(queries))
			for i := range sessions {
				sessions[i] = sto.NewSession()
			}
			shared, sharedErrs := driveShared(t, tr, sessions,
				func(scan index.SharedScan, i int, s *store.Session) index.Cursor {
					return scan.KNN(s, queries[i], 5, 0)
				})
			for i, q := range queries {
				direct, err := tr.KNN(sto.NewSession(), q, 5)
				if (err == nil) != (sharedErrs[i] == nil) {
					t.Fatalf("seed %d page %d query %d: direct err %v, shared err %v",
						seed, row.QPos, i, err, sharedErrs[i])
				}
				if err != nil {
					if !errors.Is(err, ErrUnrecoverable) {
						t.Fatalf("seed %d page %d query %d: untyped failure %v", seed, row.QPos, i, err)
					}
					continue
				}
				sameNeighbors(t, "direct", direct, clean[i])
				sameNeighbors(t, "shared", shared[i], clean[i])
			}
			flipQPageBit(t, sto, row.QPos) // restore
		}
	}
}

func sameNeighbors(t *testing.T, what string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
			t.Fatalf("%s result %d: (%d, %v), want (%d, %v)", what, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
		}
	}
}
