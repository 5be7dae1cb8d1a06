package pagesched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/store"
	"repro/internal/vec"
)

func testCfg() store.Config {
	// Horizon v = Seek/Xfer = 10 blocks.
	return store.Config{BlockSize: 4096, Seek: 0.01, Xfer: 0.001}
}

// Run is one contiguous read of Blocks blocks starting at block Pos.
type Run struct {
	Pos    int
	Blocks int
}

// PlanKnownSet is the test oracle for BatchAll with probabilities 0 and
// 1: it plans the reads for pages whose starting block positions are
// known in advance and sorted ascending; every page spans pageBlocks
// blocks. Whenever the gap between two consecutive pages costs less to
// transfer than a seek, the gap is read through (paper Section 2, Fig. 1).
func PlanKnownSet(positions []int, pageBlocks int, cfg store.Config) []Run {
	if len(positions) == 0 {
		return nil
	}
	var runs []Run
	cur := Run{Pos: positions[0], Blocks: pageBlocks}
	for _, p := range positions[1:] {
		gap := p - (cur.Pos + cur.Blocks)
		if gap < 0 {
			gap = 0 // overlapping/duplicate positions collapse
		}
		if float64(gap)*cfg.Xfer < cfg.Seek {
			if p+pageBlocks > cur.Pos+cur.Blocks {
				cur.Blocks = p + pageBlocks - cur.Pos
			}
		} else {
			runs = append(runs, cur)
			cur = Run{Pos: p, Blocks: pageBlocks}
		}
	}
	return append(runs, cur)
}

// PlanCost returns the simulated time of executing the given runs:
// one seek per run plus the transfer of all blocks.
func PlanCost(runs []Run, cfg store.Config) float64 {
	var t float64
	for _, r := range runs {
		t += cfg.Seek + float64(r.Blocks)*cfg.Xfer
	}
	return t
}

func TestPlanKnownSetSinglePage(t *testing.T) {
	runs := PlanKnownSet([]int{5}, 2, testCfg())
	if len(runs) != 1 || runs[0].Pos != 5 || runs[0].Blocks != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if PlanKnownSet(nil, 1, testCfg()) != nil {
		t.Fatal("empty input should give no runs")
	}
}

func TestPlanKnownSetOverreadVsSeek(t *testing.T) {
	cfg := testCfg() // over-read gaps < 10 blocks
	// Pages at 0 and 5 (gap 4): read through.
	runs := PlanKnownSet([]int{0, 5}, 1, cfg)
	if len(runs) != 1 || runs[0].Blocks != 6 {
		t.Fatalf("small gap: %+v", runs)
	}
	// Pages at 0 and 50 (gap 49): seek.
	runs = PlanKnownSet([]int{0, 50}, 1, cfg)
	if len(runs) != 2 {
		t.Fatalf("large gap: %+v", runs)
	}
	// Adjacent and duplicate pages collapse.
	runs = PlanKnownSet([]int{0, 0, 1, 2}, 1, cfg)
	if len(runs) != 1 || runs[0].Blocks != 3 {
		t.Fatalf("adjacent: %+v", runs)
	}
}

// Property: the plan covers every requested page, runs are disjoint and
// ordered, and the plan never costs more than either extreme strategy
// (all random seeks, or one full scan from first to last page).
func TestPlanKnownSetOptimalityBounds(t *testing.T) {
	cfg := testCfg()
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		set := map[int]bool{}
		for len(set) < n {
			set[r.Intn(500)] = true
		}
		positions := make([]int, 0, n)
		for p := range set {
			positions = append(positions, p)
		}
		sort.Ints(positions)
		pageBlocks := 1 + r.Intn(3)
		runs := PlanKnownSet(positions, pageBlocks, cfg)

		// Coverage and ordering.
		covered := func(p int) bool {
			for _, run := range runs {
				if p >= run.Pos && p+pageBlocks <= run.Pos+run.Blocks {
					return true
				}
			}
			return false
		}
		for _, p := range positions {
			if !covered(p) {
				t.Fatalf("page %d not covered by %+v", p, runs)
			}
		}
		for i := 1; i < len(runs); i++ {
			if runs[i].Pos < runs[i-1].Pos+runs[i-1].Blocks {
				t.Fatalf("runs overlap or unordered: %+v", runs)
			}
		}

		cost := PlanCost(runs, cfg)
		allSeeks := float64(n) * (cfg.Seek + float64(pageBlocks)*cfg.Xfer)
		span := positions[len(positions)-1] + pageBlocks - positions[0]
		fullScan := cfg.Seek + float64(span)*cfg.Xfer
		if cost > allSeeks+1e-12 {
			t.Fatalf("plan cost %f worse than all-random %f", cost, allSeeks)
		}
		if cost > fullScan+1e-12 {
			t.Fatalf("plan cost %f worse than full scan %f", cost, fullScan)
		}
	}
}

// Property: the greedy gap rule is optimal for known sets — verify against
// exhaustive search over all seek/over-read choices on small inputs.
func TestPlanKnownSetMatchesExhaustiveOptimum(t *testing.T) {
	cfg := testCfg()
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(7)
		set := map[int]bool{}
		for len(set) < n {
			set[r.Intn(60)] = true
		}
		positions := make([]int, 0, n)
		for p := range set {
			positions = append(positions, p)
		}
		sort.Ints(positions)

		got := PlanCost(PlanKnownSet(positions, 1, cfg), cfg)

		// Exhaustive: each of the n-1 gaps is independently "seek" or
		// "over-read", so the optimum decomposes per gap; still, compute
		// it by brute force over all 2^(n-1) choices.
		best := math.Inf(1)
		for mask := 0; mask < 1<<(n-1); mask++ {
			cost := cfg.Seek + cfg.Xfer // first page
			for i := 1; i < n; i++ {
				gap := positions[i] - positions[i-1] - 1
				if mask&(1<<(i-1)) != 0 {
					cost += cfg.Seek + cfg.Xfer // seek to page i
				} else {
					cost += float64(gap+1) * cfg.Xfer // over-read
				}
			}
			if cost < best {
				best = cost
			}
		}
		if math.Abs(got-best) > 1e-12 {
			t.Fatalf("greedy %f != optimal %f for %v", got, best, positions)
		}
	}
}

func TestAccessProbabilityBasics(t *testing.T) {
	q := vec.Point{0, 0}
	// No higher-priority regions: certain access.
	if p := AccessProbability(q, vec.Maximum, 1, nil); p != 1 {
		t.Fatalf("no competitors: %f", p)
	}
	// Zero radius: pivot page, probability 1.
	if p := AccessProbability(q, vec.Maximum, 0, []Region{{Count: 100}}); p != 1 {
		t.Fatalf("zero radius: %f", p)
	}
	// A region completely covering the b-sphere with many points: ~0.
	huge := Region{
		MBR:     vec.MBR{Lo: vec.Point{-2, -2}, Hi: vec.Point{2, 2}},
		Count:   10000,
		MinDist: 0,
	}
	if p := AccessProbability(q, vec.Maximum, 1, []Region{huge}); p > 1e-4 {
		t.Fatalf("covered sphere should be near 0: %f", p)
	}
	// A region beyond the radius contributes nothing.
	far := Region{
		MBR:     vec.MBR{Lo: vec.Point{5, 5}, Hi: vec.Point{6, 6}},
		Count:   10000,
		MinDist: 5,
	}
	if p := AccessProbability(q, vec.Maximum, 1, []Region{far}); p != 1 {
		t.Fatalf("far region should not reduce probability: %f", p)
	}
}

// Property: access probability lies in [0,1], decreases (weakly) as
// competitor regions are added, and decreases as counts grow.
func TestAccessProbabilityMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(6)
		q := make(vec.Point, d)
		var regions []Region
		for i := 0; i < 1+r.Intn(6); i++ {
			lo := make(vec.Point, d)
			hi := make(vec.Point, d)
			for j := 0; j < d; j++ {
				lo[j] = float32(r.Float64() - 0.5)
				hi[j] = lo[j] + float32(r.Float64()*0.5)
			}
			mbr := vec.MBR{Lo: lo, Hi: hi}
			regions = append(regions, Region{MBR: mbr, Count: 1 + r.Intn(50), MinDist: mbr.MinDist(q, vec.Euclidean)})
		}
		radius := 0.2 + r.Float64()
		prev := 1.0
		for i := 1; i <= len(regions); i++ {
			p := AccessProbability(q, vec.Euclidean, radius, regions[:i])
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %f", p)
			}
			if p > prev+1e-9 {
				t.Fatalf("probability increased when adding a competitor: %f > %f", p, prev)
			}
			prev = p
		}
		// Doubling every count cannot increase the probability.
		doubled := make([]Region, len(regions))
		copy(doubled, regions)
		for i := range doubled {
			doubled[i].Count *= 2
		}
		if pd := AccessProbability(q, vec.Euclidean, radius, doubled); pd > prev+1e-9 {
			t.Fatalf("doubling counts increased probability: %f > %f", pd, prev)
		}
	}
}

func TestSchedulerBatchPivotOnly(t *testing.T) {
	s := &Scheduler{
		Cfg:      testCfg(),
		NumPages: 100,
		Prob:     func(pos int) float64 { return 0 }, // nothing else worth reading
	}
	first, last := s.Batch(50)
	if first != 50 || last != 50 {
		t.Fatalf("batch [%d, %d], want pivot only", first, last)
	}
}

func TestSchedulerBatchExtendsTowardProbablePages(t *testing.T) {
	probs := map[int]float64{51: 1, 52: 1, 49: 1}
	s := &Scheduler{
		Cfg:      testCfg(),
		NumPages: 100,
		Prob: func(pos int) float64 {
			return probs[pos]
		},
	}
	first, last := s.Batch(50)
	if first > 49 || last < 52 {
		t.Fatalf("batch [%d, %d] should include certain neighbors", first, last)
	}
}

func TestSchedulerBatchOverreadsCheapGaps(t *testing.T) {
	// A certain page 5 positions away: the 4-block gap costs 4·Xfer,
	// far less than a seek, so it must be included.
	s := &Scheduler{
		Cfg:      testCfg(),
		NumPages: 100,
		Prob: func(pos int) float64 {
			if pos == 55 {
				return 1
			}
			return 0
		},
	}
	_, last := s.Batch(50)
	if last != 55 {
		t.Fatalf("last = %d, want 55 (over-read the cheap gap)", last)
	}
	// The same page beyond the give-up horizon: not worth it.
	s.Prob = func(pos int) float64 {
		if pos == 75 {
			return 1
		}
		return 0
	}
	_, last = s.Batch(50)
	if last != 50 {
		t.Fatalf("last = %d, want 50 (gap exceeds cumulated seek cost)", last)
	}
}

func TestSchedulerBatchStopsAtFileBounds(t *testing.T) {
	s := &Scheduler{
		Cfg:      testCfg(),
		NumPages: 4,
		Prob:     func(pos int) float64 { return 1 },
	}
	first, last := s.Batch(0)
	if first != 0 || last != 3 {
		t.Fatalf("batch [%d, %d], want [0, 3]", first, last)
	}
}

// Property: the batch always contains the pivot and stays within file
// bounds, for arbitrary probability assignments.
func TestSchedulerBatchQuick(t *testing.T) {
	f := func(seed int64, pivotSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(90)
		pivot := int(pivotSeed) % n
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = r.Float64()
		}
		s := &Scheduler{
			Cfg:      testCfg(),
			NumPages: n,
			Prob:     func(pos int) float64 { return probs[pos] },
		}
		first, last := s.Batch(pivot)
		return first >= 0 && last < n && first <= pivot && pivot <= last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
