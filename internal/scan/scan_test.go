package scan

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float32()
		}
		pts[i] = p
	}
	return pts
}

func bruteKNN(pts []vec.Point, q vec.Point, k int, met vec.Metric) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = met.Dist(q, p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

// mustBuild builds a scan or fails the test.
func mustBuild(t *testing.T, sto *store.Store, pts []vec.Point, met vec.Metric) *Scan {
	t.Helper()
	sc, err := Build(sto, pts, met)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// mustKNN runs a KNN query on a fresh session or fails the test.
func mustKNN(t *testing.T, sto *store.Store, sc *Scan, q vec.Point, k int) []vec.Neighbor {
	t.Helper()
	res, err := sc.KNN(sto.NewSession(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestKNNMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum, vec.Manhattan} {
		pts := randPoints(r, 1000, 6)
		sto := store.NewSim(store.DefaultConfig())
		sc := mustBuild(t, sto, pts, met)
		if sc.Len() != 1000 || sc.Dim() != 6 {
			t.Fatal("metadata wrong")
		}
		for _, q := range randPoints(r, 10, 6) {
			got := mustKNN(t, sto, sc, q, 7)
			want := bruteKNN(pts, q, 7, met)
			for i := range want {
				if math.Abs(got[i].Dist-want[i]) > 1e-6 {
					t.Fatalf("%v: dist %f, want %f", met, got[i].Dist, want[i])
				}
			}
			// Results carry correct ids and coordinates.
			for _, nb := range got {
				if !pts[nb.ID].Equal(nb.Point) {
					t.Fatalf("id/point mismatch for %d", nb.ID)
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 50, 3)
	sto := store.NewSim(store.DefaultConfig())
	sc := mustBuild(t, sto, pts, vec.Euclidean)
	if got := mustKNN(t, sto, sc, pts[0], 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := mustKNN(t, sto, sc, pts[0], 500); len(got) != 50 {
		t.Fatalf("k>n returned %d", len(got))
	}
	if nn := mustKNN(t, sto, sc, pts[7], 1); len(nn) != 1 || nn[0].Dist != 0 || nn[0].ID != 7 {
		t.Fatalf("self-NN: %+v", nn)
	}
}

func TestRangeSearch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 800, 4)
	sto := store.NewSim(store.DefaultConfig())
	sc := mustBuild(t, sto, pts, vec.Euclidean)
	q := randPoints(r, 1, 4)[0]
	eps := 0.4
	got, err := sc.RangeSearch(sto.NewSession(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, p := range pts {
		if vec.Euclidean.Dist(q, p) <= eps {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("got %d, want %d", len(got), want)
	}
}

func TestScanCostIsOneSequentialPass(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 5000, 16)
	sto := store.NewSim(store.DefaultConfig())
	sc := mustBuild(t, sto, pts, vec.Euclidean)
	s := sto.NewSession()
	if _, err := sc.KNN(s, pts[0], 1); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Seeks != 1 {
		t.Fatalf("scan used %d seeks, want 1", s.Stats.Seeks)
	}
	wantBlocks := sto.Config().Blocks(5000 * (16*4 + 4))
	if s.Stats.BlocksRead != wantBlocks {
		t.Fatalf("blocks %d, want %d", s.Stats.BlocksRead, wantBlocks)
	}
	// Cost grows linearly with N: build a double-size scan.
	sto2 := store.NewSim(store.DefaultConfig())
	sc2 := mustBuild(t, sto2, randPoints(r, 10000, 16), vec.Euclidean)
	s2 := sto2.NewSession()
	if _, err := sc2.KNN(s2, pts[0], 1); err != nil {
		t.Fatal(err)
	}
	// Linear after subtracting the single fixed seek.
	seek := sto.Config().Seek
	if ratio := (s2.Time() - seek) / (s.Time() - seek); math.Abs(ratio-2) > 0.1 {
		t.Fatalf("cost ratio %f, want ~2", ratio)
	}
}
