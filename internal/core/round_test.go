package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vec"
)

// queryCase is one query of a mixed batch: k-NN, range or window.
type queryCase struct {
	kind string
	q    vec.Point
	k    int
	eps  float64
	w    vec.MBR
}

func mixedCases(r *rand.Rand, n, dim int) []queryCase {
	cases := make([]queryCase, 0, n)
	for i := 0; i < n; i++ {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = r.Float32()
		}
		switch i % 3 {
		case 0:
			cases = append(cases, queryCase{kind: "knn", q: q, k: 1 + r.Intn(8)})
		case 1:
			cases = append(cases, queryCase{kind: "range", q: q, eps: 0.2 + r.Float64()*0.3})
		default:
			lo := make(vec.Point, dim)
			hi := make(vec.Point, dim)
			for j := range lo {
				a := r.Float32() * 0.6
				lo[j], hi[j] = a, a+0.3+r.Float32()*0.3
			}
			cases = append(cases, queryCase{kind: "window", w: vec.MBR{Lo: lo, Hi: hi}})
		}
	}
	return cases
}

// run answers the case on tr, charged to s.
func (c queryCase) run(tr *Tree, s *store.Session) ([]Neighbor, error) {
	switch c.kind {
	case "knn":
		return tr.KNN(s, c.q, c.k)
	case "range":
		return tr.RangeSearch(s, c.q, c.eps)
	default:
		return tr.WindowQuery(s, c.w)
	}
}

// TestRoundContainsCursorPanic: a query whose cursor panics — one of the
// wrong dimensionality, which the engine rejects at submission but the
// tree does not — fails typed with index.ErrPanicked instead of
// unwinding through the tree's locks, and every query after it, on a
// fresh session or on the one that panicked, answers exactly as before.
func TestRoundContainsCursorPanic(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	pts := randPoints(r, 2500, 6)
	tr := buildTree(t, pts, DefaultOptions())
	cases := mixedCases(r, 9, 6)
	answer := func(c queryCase, s *store.Session) []Neighbor {
		t.Helper()
		res, err := c.run(tr, s)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		return res
	}
	before := make([][]Neighbor, len(cases))
	for i, c := range cases {
		before[i] = answer(c, tr.sto.NewSession())
	}
	short := vec.Point{0.5, 0.5, 0.5}
	for _, bad := range []queryCase{
		{kind: "knn", q: short, k: 3},
		{kind: "range", q: short, eps: 0.3},
		{kind: "window", w: vec.MBR{Lo: short, Hi: short}},
	} {
		s := tr.sto.NewSession()
		if _, err := bad.run(tr, s); !errors.Is(err, index.ErrPanicked) {
			t.Fatalf("wrong-dimension %s: err %v, want index.ErrPanicked", bad.kind, err)
		}
		for i, c := range cases {
			sameNeighbors(t, c.kind, answer(c, tr.sto.NewSession()), before[i])
			sameNeighbors(t, c.kind+" on the session that panicked", answer(c, s), before[i])
		}
	}
}

// countdownCtx is a context whose Err turns context.Canceled after its
// first after calls, so a test can cancel a query at any one of its
// cancellation checks.
type countdownCtx struct {
	context.Context
	after, calls int
}

func (c *countdownCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCanceledQueryFailsTyped: a query whose context turns done at any of
// its cancellation checks — a round's, a span read's or the session's —
// fails with store.ErrCanceled wrapping context.Canceled instead of
// answering, and one whose context is done from the start reads no block.
func TestCanceledQueryFailsTyped(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	tr := buildTree(t, randPoints(r, 2500, 6), DefaultOptions())
	for _, c := range mixedCases(r, 6, 6) {
		clean, err := c.run(tr, tr.sto.NewSession())
		if err != nil {
			t.Fatal(err)
		}
		for after := 0; ; after++ {
			ctx := &countdownCtx{Context: context.Background(), after: after}
			s := tr.sto.NewSession()
			s.SetContext(ctx)
			res, err := c.run(tr, s)
			if ctx.calls <= after {
				if err != nil {
					t.Fatalf("%s with a live context: %v", c.kind, err)
				}
				sameNeighbors(t, c.kind, res, clean)
				break
			}
			if !errors.Is(err, store.ErrCanceled) || !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s canceled at check %d: %d results, err %v, want ErrCanceled", c.kind, after+1, len(res), err)
			}
			if after == 0 && s.Stats.Reads != 0 {
				t.Fatalf("%s canceled before it began: %d reads, want 0", c.kind, s.Stats.Reads)
			}
		}
	}
}

// TestDegradedReadsAgreeAcrossDrivers pins the damaged-page rule. With
// every page stored exact (no level-3 shadow), a page corrupted beneath
// the checksum layer is unrecoverable — but only for a query that must
// read it as its pivot. A damaged page that a query's batch merely
// over-reads, and that the query later prunes, must not fail it. For
// every (corrupt page, query) pair the query must either fail typed or
// answer as on the clean tree, and both outcomes must occur.
func TestDegradedReadsAgreeAcrossDrivers(t *testing.T) {
	opt := DefaultOptions()
	opt.Quantize = false
	answered, failed := 0, 0
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
			for i, q := range queries {
				res, err := tr.KNN(sto.NewSession(), q, 5)
				if err != nil {
					if !errors.Is(err, ErrUnrecoverable) {
						t.Fatalf("seed %d page %d query %d: untyped failure %v", seed, row.QPos, i, err)
					}
					failed++
					continue
				}
				sameNeighbors(t, "direct", res, clean[i])
				answered++
			}
			flipQPageBit(t, sto, row.QPos) // restore
		}
	}
	if answered == 0 || failed == 0 {
		t.Fatalf("%d answered and %d failed typed; the damage must both spare and hit some queries", answered, failed)
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
