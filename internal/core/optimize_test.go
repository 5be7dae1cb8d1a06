package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// smallConfig shrinks blocks so split trees stay shallow enough for
// exhaustive enumeration.
func smallConfig() store.Config {
	cfg := store.DefaultConfig()
	cfg.BlockSize = 512
	return cfg
}

// enumerateFrontiers returns every valid solution (Definition 1 of the
// paper) of the split tree rooted at n.
func enumerateFrontiers(n *bnode) [][]*bnode {
	out := [][]*bnode{{n}}
	if n.left == nil {
		return out
	}
	for _, lf := range enumerateFrontiers(n.left) {
		for _, rf := range enumerateFrontiers(n.right) {
			comb := make([]*bnode, 0, len(lf)+len(rf))
			comb = append(comb, lf...)
			comb = append(comb, rf...)
			out = append(out, comb)
		}
	}
	return out
}

// TestOptimizerMatchesExhaustiveSearch verifies Section 3.6: the greedy
// optimizer's chosen configuration has the minimal model cost among all
// split-tree solutions (on uniform data, where the model's monotonicity
// assumptions hold).
func TestOptimizerMatchesExhaustiveSearch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		pts := randPoints(r, 300+r.Intn(200), 4)

		sto := store.NewSim(smallConfig())
		tr, err := Build(sto, pts, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		greedyCost := tr.CostEstimate()

		// Rebuild the split tree exactly as the builder saw it.
		b := newBuilder(tr.geometry, tr.opt, tr.load().model, pts)
		ranges := b.initialRanges()
		roots := make([]*bnode, len(ranges))
		for i, rg := range ranges {
			roots[i] = b.newNode(rg.lo, rg.hi, rg.mbr)
		}

		// Cross product of per-root solutions, pruned by running minimum.
		frontiers := [][]*bnode{nil}
		for _, root := range roots {
			opts := enumerateFrontiers(root)
			var next [][]*bnode
			for _, f := range frontiers {
				for _, o := range opts {
					comb := make([]*bnode, 0, len(f)+len(o))
					comb = append(comb, f...)
					comb = append(comb, o...)
					next = append(next, comb)
				}
			}
			frontiers = next
			if len(frontiers) > 2_000_000 {
				t.Fatalf("enumeration blew up (%d)", len(frontiers))
			}
		}
		model := tr.Model()
		best := greedyCost
		bestIsExhaustive := false
		for _, f := range frontiers {
			infos := make([]costmodel.PageInfo, len(f))
			for i, n := range f {
				infos[i] = costmodel.PageInfo{MBR: n.mbr, Count: n.count(), Bits: n.bits}
			}
			if c := model.Total(infos); c < best-1e-12 {
				best = c
				bestIsExhaustive = true
			}
		}
		if bestIsExhaustive && (greedyCost-best) > 1e-9+0.001*best {
			t.Fatalf("seed %d: greedy cost %.9f exceeds exhaustive optimum %.9f", seed, greedyCost, best)
		}
	}
}

// TestOptimizerAdaptsToDensity checks the heart of "independent
// quantization": dense regions must receive finer quantization than
// sparse regions of the same tree.
func TestOptimizerAdaptsToDensity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// Two regions far enough apart that the top split isolates them:
	// half the points (odd i) in a dense cube of side 0.02, the other
	// half in a sparse cube of side 0.5.
	pts := make([]vec.Point, 20000)
	for i := range pts {
		p := make(vec.Point, 8)
		for j := range p {
			if i%2 == 1 {
				p[j] = r.Float32() * 0.02
			} else {
				p[j] = 0.5 + r.Float32()*0.5
			}
		}
		pts[i] = p
	}
	tr := buildTree(t, pts, DefaultOptions())
	// There must be at least two distinct levels — the whole point of
	// per-page (independent) quantization.
	if st := tr.Stats(); len(st.BitsHistogram) < 2 {
		t.Fatalf("one quantization level for both regions: %v", st.BitsHistogram)
	}
	// A dense page's MBR has no side as long as 0.1.
	var bits, pages [2]int // [0] sparse, [1] dense
	for _, pg := range tr.DescribePages() {
		dense := 0
		if _, side := pg.MBR.MaxSide(); side < 0.1 {
			dense = 1
		}
		bits[dense] += pg.Bits
		pages[dense]++
	}
	if pages[0] == 0 || pages[1] == 0 {
		t.Fatalf("%d sparse and %d dense pages: the regions share pages", pages[0], pages[1])
	}
	sparse, dense := float64(bits[0])/float64(pages[0]), float64(bits[1])/float64(pages[1])
	if dense <= sparse {
		t.Fatalf("mean level %.2f on %d dense pages, %.2f on %d sparse ones: density did not buy finer quantization",
			dense, pages[1], sparse, pages[0])
	}
}

func TestConcurrentSearches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 4000, 8)
	tr := buildTree(t, pts, DefaultOptions())
	queries := randPoints(r, 40, 8)
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = bruteKNN(pts, q, 1, vec.Euclidean)[0]
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q vec.Point) {
			defer wg.Done()
			s := tr.sto.NewSession()
			nn, err := tr.KNN(s, q, 1)
			if err != nil || len(nn) != 1 || nn[0].Dist > want[i]+1e-6 {
				errs <- "wrong concurrent result"
			}
		}(i, q)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randPoints(r, 500, 4)
	tr := buildTree(t, pts, DefaultOptions())
	s := tr.sto.NewSession()
	if got, err := tr.KNN(s, pts[0], 0); err != nil {
		t.Fatal(err)
	} else if got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := mustKNN(t, tr, pts[0], 1000); len(got) != 500 {
		t.Fatalf("k > n returned %d results", len(got))
	}
	if nn := mustKNN(t, tr, pts[33], 1); len(nn) != 1 || nn[0].Dist != 0 {
		t.Fatalf("self query: %+v", nn)
	}
}

func TestBuildValidation(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	if _, err := Build(sto, nil, DefaultOptions()); err == nil {
		t.Fatal("empty build should error")
	}
	if _, err := Build(sto, []vec.Point{{1, 2}, {1}}, DefaultOptions()); err == nil {
		t.Fatal("ragged dimensions should error")
	}
	if _, err := Build(sto, []vec.Point{{}}, DefaultOptions()); err == nil {
		t.Fatal("zero-dimensional points should error")
	}
}

func TestWindowQuery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 2000, 5)
	tr := buildTree(t, pts, DefaultOptions())
	w := vec.MBR{
		Lo: vec.Point{0.2, 0.2, 0.2, 0.2, 0.2},
		Hi: vec.Point{0.6, 0.6, 0.6, 0.6, 0.6},
	}
	got, err := tr.WindowQuery(tr.sto.NewSession(), w)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, p := range pts {
		if w.Contains(p) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("window query got %d, want %d", len(got), want)
	}
	for _, nb := range got {
		if !w.Contains(nb.Point) || !pts[nb.ID].Equal(nb.Point) {
			t.Fatalf("bad result %+v", nb)
		}
	}
}

func TestMaximumMetricEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 2500, 12)
	opt := DefaultOptions()
	opt.Metric = vec.Maximum
	tr := buildTree(t, pts, opt)
	checkKNN(t, tr, pts, randPoints(r, 10, 12), 4, vec.Maximum)
	// Range search under the maximum metric.
	q := randPoints(r, 1, 12)[0]
	eps := 0.3
	got := mustRange(t, tr, q, eps)
	var want int
	for _, p := range pts {
		if vec.Maximum.Dist(q, p) <= eps {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range got %d, want %d", len(got), want)
	}
}

func TestTraceCountsWork(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 3000, 10)
	tr := buildTree(t, pts, DefaultOptions())
	var trace Trace
	if _, err := tr.KNN(traced(tr.sto, &trace), randPoints(r, 1, 10)[0], 1); err != nil {
		t.Fatal(err)
	}
	if trace.PagesRead == 0 || len(trace.Batches) == 0 {
		t.Fatalf("empty trace: %+v", trace)
	}
	if trace.PagesRead < len(trace.Batches) {
		t.Fatalf("more batches than pages: %+v", trace)
	}
}

func TestLadderCapacityHalves(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	tr, err := Build(sto, randPoints(rand.New(rand.NewSource(10)), 100, 16), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(quantize.Levels); i++ {
		a := tr.pageCapacity(quantize.Levels[i])
		b := tr.pageCapacity(quantize.Levels[i+1])
		if a != 2*b {
			t.Fatalf("capacity ladder broken: cap(%d)=%d, cap(%d)=%d",
				quantize.Levels[i], a, quantize.Levels[i+1], b)
		}
	}
}

func TestUniformModelAblation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts := randPoints(r, 2000, 8)
	opt := DefaultOptions()
	opt.FractalDim = 8 // D_F = d
	tr := buildTree(t, pts, opt)
	if tr.FractalDim() != 8 {
		t.Fatalf("uniform model D_F = %f, want 8", tr.FractalDim())
	}
	checkKNN(t, tr, pts, randPoints(r, 5, 8), 2, vec.Euclidean)
}

func TestFixedFractalDimOption(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := randPoints(r, 1500, 6)
	opt := DefaultOptions()
	opt.FractalDim = 3.5
	tr := buildTree(t, pts, opt)
	if tr.FractalDim() != 3.5 {
		t.Fatalf("D_F = %f, want 3.5", tr.FractalDim())
	}
}
