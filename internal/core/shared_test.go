package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vec"
)

// driveShared runs the cursors mk begins, one per session, through the
// tree's fetch rounds the way the engine's coordinator does: a round over
// every live cursor, restarting cursors a reorganization invalidated.
// Returns per-query results and errors.
func driveShared(t *testing.T, tr *Tree, sessions []*store.Session,
	mk func(scan index.SharedScan, i int, s *store.Session) index.Cursor) ([][]Neighbor, []error) {
	t.Helper()
	scan := tr.NewSharedScan()
	n := len(sessions)
	cursors := make([]index.Cursor, n)
	for i := range cursors {
		cursors[i] = mk(scan, i, sessions[i])
	}
	results := make([][]Neighbor, n)
	errs := make([]error, n)
	restarts := 0
	var live []index.Cursor
	for rounds := 0; ; rounds++ {
		if rounds > 100000 {
			t.Fatal("driveShared: no progress")
		}
		live = live[:0]
		for _, c := range cursors {
			if c != nil {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			return results, errs
		}
		scan.Round(live)
		for i, c := range cursors {
			if c == nil || !c.Done() {
				continue
			}
			res, err := c.Results()
			c.Close()
			if errors.Is(err, index.ErrStaleScan) {
				if restarts++; restarts > 100 {
					t.Fatal("driveShared: restart loop")
				}
				cursors[i] = mk(scan, i, sessions[i])
				continue
			}
			results[i], errs[i], cursors[i] = res, err, nil
		}
	}
}

type sharedCase struct {
	kind string
	q    vec.Point
	k    int
	eps  float64
	w    vec.MBR
}

func mixedCases(r *rand.Rand, n, dim int) []sharedCase {
	cases := make([]sharedCase, 0, n)
	for i := 0; i < n; i++ {
		q := make(vec.Point, dim)
		for j := range q {
			q[j] = r.Float32()
		}
		switch i % 3 {
		case 0:
			cases = append(cases, sharedCase{kind: "knn", q: q, k: 1 + r.Intn(8)})
		case 1:
			cases = append(cases, sharedCase{kind: "range", q: q, eps: 0.2 + r.Float64()*0.3})
		default:
			lo := make(vec.Point, dim)
			hi := make(vec.Point, dim)
			for j := range lo {
				a := r.Float32() * 0.6
				lo[j], hi[j] = a, a+0.3+r.Float32()*0.3
			}
			cases = append(cases, sharedCase{kind: "window", w: vec.MBR{Lo: lo, Hi: hi}})
		}
	}
	return cases
}

func newSharedCursor(scan index.SharedScan, c sharedCase, s *store.Session) index.Cursor {
	switch c.kind {
	case "knn":
		return scan.KNN(s, c.q, c.k, 0)
	case "range":
		return scan.Range(s, c.q, c.eps)
	default:
		return scan.Window(s, c.w)
	}
}

func directCase(t *testing.T, tr *Tree, c sharedCase, s *store.Session) []Neighbor {
	t.Helper()
	var res []Neighbor
	var err error
	switch c.kind {
	case "knn":
		res, err = tr.KNN(s, c.q, c.k)
	case "range":
		res, err = tr.RangeSearch(s, c.q, c.eps)
	default:
		res, err = tr.WindowQuery(s, c.w)
	}
	if err != nil {
		t.Fatalf("direct %s: %v", c.kind, err)
	}
	return res
}

// TestSharedCursorsMatchShareNothing is the core equivalence contract:
// a mixed batch of KNN, range and window queries executed concurrently
// through the scan-sharing round protocol returns bit-identical results
// to share-nothing single-session execution.
func TestSharedCursorsMatchShareNothing(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mut  func(*Options)
	}{
		{"optimized", func(o *Options) {}},
		{"single-page-io", func(o *Options) { o.OptimizedIO = false }},
		{"fixed8", func(o *Options) { o.FixedBits = 8 }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(31))
			pts := randPoints(r, 2500, 6)
			sto := store.NewSim(store.DefaultConfig())
			opt := DefaultOptions()
			opt.FractalDim = 4
			cfg.mut(&opt)
			tr, err := Build(sto, pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			cases := mixedCases(r, 24, 6)
			sessions := make([]*store.Session, len(cases))
			for i := range sessions {
				sessions[i] = sto.NewSession()
			}
			results, errs := driveShared(t, tr, sessions,
				func(scan index.SharedScan, i int, s *store.Session) index.Cursor {
					return newSharedCursor(scan, cases[i], s)
				})
			for i, c := range cases {
				if errs[i] != nil {
					t.Fatalf("shared %s %d: %v", c.kind, i, errs[i])
				}
				want := directCase(t, tr, c, sto.NewSession())
				got := results[i]
				if len(got) != len(want) {
					t.Fatalf("%s %d: shared %d results, direct %d", c.kind, i, len(got), len(want))
				}
				for j := range want {
					if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
						t.Fatalf("%s %d result %d: shared (%d,%v), direct (%d,%v)",
							c.kind, i, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
					}
				}
			}
		})
	}
}

// TestSharedSingleQueryDegeneratesToShareNothing pins the degeneracy
// property end to end at the cost level: with exactly one query in
// flight, the shared pipeline issues the same simulated reads as the
// share-nothing path — same blocks, same seeks, same simulated time.
func TestSharedSingleQueryDegeneratesToShareNothing(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pts := randPoints(r, 3000, 8)
	sto := store.NewSim(store.DefaultConfig())
	opt := DefaultOptions()
	opt.FractalDim = 4
	tr, err := Build(sto, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range mixedCases(r, 9, 8) {
		shared := sto.NewSession()
		_, errs := driveShared(t, tr, []*store.Session{shared},
			func(scan index.SharedScan, _ int, s *store.Session) index.Cursor {
				return newSharedCursor(scan, c, s)
			})
		if errs[0] != nil {
			t.Fatalf("case %d: %v", i, errs[0])
		}
		direct := sto.NewSession()
		directCase(t, tr, c, direct)
		if shared.Stats != direct.Stats {
			t.Fatalf("case %d (%s): shared stats %+v, direct %+v", i, c.kind, shared.Stats, direct.Stats)
		}
	}
}

// TestSharedCursorStaleAfterReoptimize checks the round's generation
// guard: a cursor created before Reoptimize ends with ErrStaleScan
// instead of reading rewritten file regions, and a fresh cursor succeeds.
func TestSharedCursorStaleAfterReoptimize(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	pts := randPoints(r, 1200, 4)
	sto := store.NewSim(store.DefaultConfig())
	opt := DefaultOptions()
	opt.FractalDim = 4
	tr, err := Build(sto, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	scan := tr.NewSharedScan()
	cur := scan.KNN(sto.NewSession(), pts[0], 3, 0)
	if scan.Round([]index.Cursor{cur}); cur.Done() {
		_, err := cur.Results()
		t.Fatalf("first round ended the query: %v", err)
	}
	if err := tr.Reoptimize(); err != nil {
		t.Fatal(err)
	}
	scan.Round([]index.Cursor{cur})
	if _, err := cur.Results(); !cur.Done() || !errors.Is(err, index.ErrStaleScan) {
		t.Fatalf("round after reoptimize: done=%v err=%v, want ErrStaleScan", cur.Done(), err)
	}
	cur.Close()
	sessions := []*store.Session{sto.NewSession()}
	results, errs := driveShared(t, tr, sessions,
		func(scan index.SharedScan, _ int, s *store.Session) index.Cursor {
			return scan.KNN(s, pts[0], 3, 0)
		})
	if errs[0] != nil || len(results[0]) != 3 {
		t.Fatalf("fresh cursor after reoptimize: %d results, err %v", len(results[0]), errs[0])
	}
}
