package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/scan"
	"repro/internal/store"
	"repro/internal/vafile"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// edgeSearcher is the query surface shared by the IQ-tree and both
// baselines, so one table exercises all of them.
type edgeSearcher interface {
	KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error)
	RangeSearch(s *store.Session, q vec.Point, eps float64) ([]vec.Neighbor, error)
}

// edgeMethods builds every access method over the same database, each on
// its own simulated store.
func edgeMethods(t *testing.T, db []vec.Point) map[string]edgeSearcher {
	t.Helper()
	out := make(map[string]edgeSearcher)

	iq, err := Build(store.NewSim(store.DefaultConfig()), db, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out["iqtree"] = iq

	xt, err := xtree.Build(store.NewSim(store.DefaultConfig()), db, xtree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out["xtree"] = xt

	va, err := vafile.Build(store.NewSim(store.DefaultConfig()), db, vafile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out["vafile"] = va
	return out
}

func sortedDists(nbs []vec.Neighbor) []float64 {
	ds := make([]float64, len(nbs))
	for i, nb := range nbs {
		ds[i] = nb.Dist
	}
	sort.Float64s(ds)
	return ds
}

// TestQueryEdgeCases is the edge-case table of the bugfix sweep: the
// degenerate inputs that historically panic or silently disagree across
// access methods, checked for the IQ-tree and both baselines against the
// sequential-scan ground truth.
func TestQueryEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	normal := randPoints(r, 300, 4)
	dup := make([]vec.Point, 200)
	for i := range dup {
		dup[i] = vec.Point{0.5, 0.25, 0.75, 0.5}
	}
	q := vec.Point{0.4, 0.4, 0.4, 0.4}

	for _, db := range []struct {
		name string
		pts  []vec.Point
	}{
		{"normal", normal},
		{"all-duplicates", dup},
	} {
		t.Run(db.name, func(t *testing.T) {
			truthSto := store.NewSim(store.DefaultConfig())
			truth, err := scan.Build(truthSto, db.pts, vec.Euclidean)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range edgeMethods(t, db.pts) {
				t.Run(name, func(t *testing.T) {
					// k <= 0: empty result, no error, no panic.
					for _, k := range []int{0, -3} {
						s := truthSto.NewSession()
						res, err := m.KNN(s, q, k)
						if err != nil || len(res) != 0 {
							t.Fatalf("k=%d: %d results, err %v", k, len(res), err)
						}
					}

					// k > N: exactly N results, matching the scan's distances.
					s := truthSto.NewSession()
					res, err := m.KNN(s, q, len(db.pts)+10)
					if err != nil {
						t.Fatal(err)
					}
					want, err := truth.KNN(truthSto.NewSession(), q, len(db.pts))
					if err != nil {
						t.Fatal(err)
					}
					if len(res) != len(db.pts) {
						t.Fatalf("k>N returned %d of %d points", len(res), len(db.pts))
					}
					got, exp := sortedDists(res), sortedDists(want)
					for i := range got {
						if d := got[i] - exp[i]; d > 1e-5 || d < -1e-5 {
							t.Fatalf("k>N rank %d: dist %g vs scan %g", i, got[i], exp[i])
						}
					}

					// Zero-radius range: only exact matches of the query point.
					onPoint := db.pts[0]
					res, err = m.RangeSearch(truthSto.NewSession(), onPoint, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, err = truth.RangeSearch(truthSto.NewSession(), onPoint, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(res) != len(want) {
						t.Fatalf("zero-radius on a stored point: %d results, scan found %d",
							len(res), len(want))
					}
					res, err = m.RangeSearch(truthSto.NewSession(), q, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, err = truth.RangeSearch(truthSto.NewSession(), q, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(res) != len(want) {
						t.Fatalf("zero-radius off-point: %d results, scan found %d",
							len(res), len(want))
					}

					// The nearest neighbor of a populated index always exists.
					if nn, err := m.KNN(truthSto.NewSession(), q, 1); err != nil || len(nn) != 1 {
						t.Fatalf("NN: %d results, err %v", len(nn), err)
					}
				})
			}
		})
	}
}

// TestEmptyTreeQueries covers the empty-index edge: the IQ-tree can
// become empty through deletion and must answer every query shape
// gracefully; the baselines refuse to build over nothing (an error, not
// a panic).
func TestEmptyTreeQueries(t *testing.T) {
	pts := []vec.Point{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()
	for i, p := range pts {
		if ok, err := tr.Delete(s, p, uint32(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len %d after deleting everything", tr.Len())
	}

	q := vec.Point{0.2, 0.2}
	s = tr.sto.NewSession()
	if res, err := tr.KNN(s, q, 5); err != nil || len(res) != 0 {
		t.Fatalf("empty KNN: %d results, err %v", len(res), err)
	}
	if res, err := tr.RangeSearch(s, q, 0.5); err != nil || len(res) != 0 {
		t.Fatalf("empty range: %d results, err %v", len(res), err)
	}
	w := vec.MBR{Lo: vec.Point{0, 0}, Hi: vec.Point{1, 1}}
	if res, err := tr.WindowQuery(s, w); err != nil || len(res) != 0 {
		t.Fatalf("empty window: %d results, err %v", len(res), err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("queries on the empty tree poisoned the session: %v", err)
	}

	// The tree must also come back: inserting into the emptied tree
	// revives a freed page rather than failing.
	if err := tr.Insert(s, vec.Point{0.9, 0.9}, 42); err != nil {
		t.Fatalf("insert into emptied tree: %v", err)
	}
	res, err := tr.KNN(s, q, 1)
	if err != nil || len(res) != 1 || res[0].ID != 42 {
		t.Fatalf("KNN after revival: %+v err %v", res, err)
	}

	// Builders reject an empty point set with an error, never a panic.
	for name, build := range map[string]func() error{
		"iqtree": func() error {
			_, err := Build(store.NewSim(store.DefaultConfig()), nil, DefaultOptions())
			return err
		},
		"xtree": func() error {
			_, err := xtree.Build(store.NewSim(store.DefaultConfig()), nil, xtree.DefaultOptions())
			return err
		},
		"vafile": func() error {
			_, err := vafile.Build(store.NewSim(store.DefaultConfig()), nil, vafile.DefaultOptions())
			return err
		},
		"scan": func() error {
			_, err := scan.Build(store.NewSim(store.DefaultConfig()), nil, vec.Euclidean)
			return err
		},
	} {
		if err := build(); err == nil {
			t.Fatalf("%s: empty build succeeded, want error", name)
		}
	}
}
