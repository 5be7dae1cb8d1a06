// Integration tests for the public facade: everything a downstream user
// touches goes through the root package.
package repro_test

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	all := repro.GenUniform(1, 5010, 8)
	db, queries := repro.SplitDataset(all, 10)

	sto := repro.NewStore(repro.DefaultStoreConfig())
	tree, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		t.Fatal(err)
	}

	scanStore := repro.NewStore(repro.DefaultStoreConfig())
	flat, err := repro.BuildScan(scanStore, db, repro.Euclidean)
	if err != nil {
		t.Fatal(err)
	}

	xStore := repro.NewStore(repro.DefaultStoreConfig())
	xt, err := repro.BuildXTree(xStore, db, repro.DefaultXTreeOptions())
	if err != nil {
		t.Fatal(err)
	}

	vStore := repro.NewStore(repro.DefaultStoreConfig())
	va, err := repro.BuildVAFile(vStore, db, repro.DefaultVAFileOptions())
	if err != nil {
		t.Fatal(err)
	}

	must := func(res []repro.Neighbor, err error) []repro.Neighbor {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for qi, q := range queries {
		ref := must(flat.KNN(scanStore.NewSession(), q, 4))
		for name, got := range map[string][]repro.Neighbor{
			"iqtree": must(tree.KNN(sto.NewSession(), q, 4)),
			"xtree":  must(xt.KNN(xStore.NewSession(), q, 4)),
			"vafile": must(va.KNN(vStore.NewSession(), q, 4)),
		} {
			if len(got) != len(ref) {
				t.Fatalf("%s query %d: %d results", name, qi, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Dist-ref[i].Dist) > 1e-5 {
					t.Fatalf("%s query %d: dist %f, want %f", name, qi, got[i].Dist, ref[i].Dist)
				}
			}
		}
	}
}

func TestFacadeSessionAccounting(t *testing.T) {
	all := repro.GenWeather(2, 3005)
	db, queries := repro.SplitDataset(all, 5)
	sto := repro.NewStore(repro.DefaultStoreConfig())
	tree, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sto.NewSession()
	if res, err := tree.KNN(s, queries[0], 1); err != nil {
		t.Fatal(err)
	} else if len(res) == 0 {
		t.Fatal("no result")
	}
	if s.Time() <= 0 || s.Stats.Seeks == 0 || s.Stats.BlocksRead == 0 {
		t.Fatalf("session accounting empty: %v", s.Stats)
	}
}

func TestFacadePersistence(t *testing.T) {
	all := repro.GenCAD(3, 2005)
	db, queries := repro.SplitDataset(all, 5)
	sto := repro.NewStore(repro.DefaultStoreConfig())
	orig, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := repro.OpenIQTree(sto)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		a, err := orig.KNN(sto.NewSession(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reopened.KNN(sto.NewSession(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a[0].ID != b[0].ID || a[0].Dist != b[0].Dist {
			t.Fatalf("reopened tree disagrees: %+v vs %+v", a, b)
		}
	}
}

// TestFacadeFilePersistenceRoundTrip builds an IQ-tree on a file-backed
// store, closes it, reopens the directory in a fresh store, and checks
// that the reopened tree returns identical KNN results.
func TestFacadeFilePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	all := repro.GenColor(11, 3008)
	db, queries := repro.SplitDataset(all, 8)

	sto, err := repro.OpenFileStore(dir, repro.DefaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]repro.Neighbor, len(queries))
	for i, q := range queries {
		if want[i], err = tree.KNN(sto.NewSession(), q, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := sto.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}

	// A different process would do exactly this: open the directory and
	// reconstruct the tree from the persisted pages.
	sto2, err := repro.OpenFileStore(dir, repro.DefaultStoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto2.Close()
	reopened, err := repro.OpenIQTree(sto2)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		got, err := reopened.KNN(sto2.NewSession(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[qi]) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want[qi]))
		}
		for i := range got {
			if got[i].ID != want[qi][i].ID || got[i].Dist != want[qi][i].Dist {
				t.Fatalf("query %d result %d: %+v, want %+v", qi, i, got[i], want[qi][i])
			}
		}
	}
}

// TestFacadeConcurrentQueriesSharedPool is the concurrency smoke test:
// many goroutines run KNN and range queries against one tree through a
// shared buffer pool. Run under -race this exercises the pool's locking.
func TestFacadeConcurrentQueriesSharedPool(t *testing.T) {
	all := repro.GenUniform(13, 4016, 8)
	db, queries := repro.SplitDataset(all, 16)

	sto := repro.NewStore(repro.DefaultStoreConfig())
	sto.SetCache(1 << 20)
	tree, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Reference answers, computed single-threaded.
	wantKNN := make([][]repro.Neighbor, len(queries))
	wantRange := make([]int, len(queries))
	for i, q := range queries {
		if wantKNN[i], err = tree.KNN(sto.NewSession(), q, 5); err != nil {
			t.Fatal(err)
		}
		res, err := tree.RangeSearch(sto.NewSession(), q, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		wantRange[i] = len(res)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for qi, q := range queries {
					got, err := tree.KNN(sto.NewSession(), q, 5)
					if err != nil {
						t.Errorf("worker %d query %d: %v", w, qi, err)
						return
					}
					for i := range got {
						if got[i].ID != wantKNN[qi][i].ID {
							t.Errorf("worker %d query %d: id %d, want %d",
								w, qi, got[i].ID, wantKNN[qi][i].ID)
							return
						}
					}
					res, err := tree.RangeSearch(sto.NewSession(), q, 0.6)
					if err != nil {
						t.Errorf("worker %d range %d: %v", w, qi, err)
						return
					}
					if len(res) != wantRange[qi] {
						t.Errorf("worker %d range %d: %d results, want %d",
							w, qi, len(res), wantRange[qi])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if ps := sto.Pool().Stats(); ps.Hits == 0 {
		t.Fatalf("shared pool saw no hits: %+v", ps)
	}
}

func TestFacadeDatasets(t *testing.T) {
	for _, c := range []struct {
		name repro.DatasetName
		d    int
	}{
		{repro.DatasetUniform, 12},
		{repro.DatasetCAD, 16},
		{repro.DatasetColor, 16},
		{repro.DatasetWeather, 9},
	} {
		pts, err := repro.GenerateDataset(c.name, 1, 100, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 100 || len(pts[0]) != c.d {
			t.Fatalf("%s: %d x %d", c.name, len(pts), len(pts[0]))
		}
	}
	if d := repro.FractalDimension(repro.GenWeather(1, 3000), repro.Euclidean); d > 6 {
		t.Fatalf("weather fractal dimension %f implausibly high", d)
	}
}

func TestFacadeRangeAndStats(t *testing.T) {
	all := repro.GenColor(5, 4003)
	db, queries := repro.SplitDataset(all, 3)
	sto := repro.NewStore(repro.DefaultStoreConfig())
	tree, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Points != len(db) || st.Pages == 0 {
		t.Fatalf("stats: %+v", st)
	}
	res, err := tree.RangeSearch(sto.NewSession(), queries[0], 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].Dist < res[j].Dist }) {
		t.Fatal("range results not sorted")
	}
	for _, nb := range res {
		if nb.Dist > 0.2 {
			t.Fatalf("range result outside eps: %f", nb.Dist)
		}
	}
	mbr := repro.MBROf(db)
	if mbr.Dim() != 16 {
		t.Fatal("facade MBROf wrong")
	}
}
