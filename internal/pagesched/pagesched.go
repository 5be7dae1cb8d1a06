// Package pagesched implements the time-based page access strategies of
// paper Section 2:
//
//   - PlanKnownSet: the optimal fetch schedule for a page set known in
//     advance (range queries, Fig. 1) — over-read a gap whenever the
//     transfer of the skipped blocks is cheaper than a seek.
//   - Scheduler.Batch: the cumulated-cost-balance batching of the
//     time-optimized nearest-neighbor algorithm (Sec. 2.1) — starting from
//     the pivot page, extend the read sequence forward and backward while
//     the expected savings of over-reading probable pages outweigh the
//     transfer cost.
//   - AccessProbability: the probability that a page must be loaded later
//     in a nearest-neighbor search (Sec. 2.2, Eq. 2–5).
package pagesched

import (
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// Run is one contiguous read of Blocks blocks starting at block Pos.
type Run struct {
	Pos    int
	Blocks int
}

// PlanKnownSet plans the reads for pages whose starting block positions
// are known in advance and sorted ascending; every page spans pageBlocks
// blocks. Whenever the gap between two consecutive pages costs less to
// transfer than a seek, the gap is read through (paper Section 2).
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

// Region describes a page region competing in a nearest-neighbor priority
// list, for access-probability estimation.
type Region struct {
	MBR     vec.MBR
	Count   int     // number of points in the region
	MinDist float64 // MINDIST from the query point
}

// ProbFloor is the resolution limit of the probability model: products of
// per-region miss probabilities are cut off once they drop below it, so
// no estimate this package produces distinguishes probabilities closer to
// 0 (or, for the complementary improvement estimate, closer to 1) than
// ProbFloor. It is therefore also the resolution limit of the approximate
// search ε dial built on these estimates (see core's probability-bounded
// termination): an ε at or below ProbFloor is indistinguishable from
// exact execution.
const ProbFloor = 1e-6

// AccessProbability returns the probability that a page whose b-sphere has
// radius r (its MINDIST from query q) must be accessed: the probability
// that none of the higher-priority regions contains a point inside the
// b-sphere (Eq. 2–5). `higher` must hold the still-unprocessed regions
// with MinDist < r, closest first. The product is cut off once it drops
// below ProbFloor, and at most maxRegions competitors are examined (the
// closest regions dominate the product; the estimate only steers the I/O
// batching heuristic). For the Euclidean metric the box∩sphere volume
// uses the fast equal-volume-cube surrogate.
func AccessProbability(q vec.Point, met vec.Metric, r float64, higher []Region) float64 {
	var ps ProbScratch
	return ps.AccessProbability(q, met, r, higher)
}

// ProbScratch holds the reusable float64 buffers of the access
// probability computation, so hot query paths can evaluate it without
// allocating. The zero value is ready; not safe for concurrent use.
type ProbScratch struct {
	qf, lo, hi []float64
}

// AccessProbability is the scratch-buffered equivalent of the package
// function of the same name; results are identical.
func (ps *ProbScratch) AccessProbability(q vec.Point, met vec.Metric, r float64, higher []Region) float64 {
	const maxRegions = 128
	if r <= 0 {
		return 1
	}
	if len(higher) > maxRegions {
		higher = higher[:maxRegions]
	}
	eucl := met != vec.Maximum
	d := len(q)
	ps.qf = growF(ps.qf, d)
	ps.lo = growF(ps.lo, d)
	ps.hi = growF(ps.hi, d)
	qf, lo, hi := ps.qf, ps.lo, ps.hi
	for i, v := range q {
		qf[i] = float64(v)
	}
	prob := 1.0
	for _, reg := range higher {
		if reg.MinDist >= r || reg.Count <= 0 {
			continue
		}
		vol := 1.0
		for i := 0; i < d; i++ {
			lo[i] = float64(reg.MBR.Lo[i])
			hi[i] = float64(reg.MBR.Hi[i])
			side := hi[i] - lo[i]
			if side <= 0 {
				side = 1e-12
				hi[i] = lo[i] + side
			}
			vol *= side
		}
		var vint float64
		if eucl {
			vint = mathx.BoxSphereIntersectEuclFast(lo, hi, qf, r)
		} else {
			vint = mathx.BoxSphereIntersectMax(lo, hi, qf, r)
		}
		frac := mathx.Clamp(vint/vol, 0, 1)
		// P(no point of this region in the intersection) = (1-frac)^Count.
		prob *= math.Pow(1-frac, float64(reg.Count))
		if prob < ProbFloor {
			return 0
		}
	}
	return prob
}

// ImproveProbability estimates the probability that fetching the given
// regions would still improve any single slot of a k-nearest-neighbor
// result whose current kth distance is r. Under the paper's
// uniformity-within-MBR model (Eq. 1–5) the joint miss probability —
// no point of any region inside the b-sphere(q, r) — is
//
//	M = Π over regions of (1 − vol(MBR ∩ b-sphere(q,r)) / vol(MBR))^Count
//
// so the expected number of still-improving points is −ln M, and
// distributing those over the result's slots (≥ 1) gives the per-slot
// improvement probability
//
//	1 − M^(1/slots)
//
// which is the calibrated termination quantity of the approximate
// search: stopping once it drops below ε bounds the expected fraction
// of result slots an unfetched page could still change by ε, i.e. the
// expected recall by 1 − ε. slots = 1 degenerates to the plain
// any-point-improves probability 1 − M.
//
// Regions with MinDist ≥ r or Count ≤ 0 cannot contribute and are
// skipped. The scan aborts early once the probability provably reaches
// cut (the caller's decision threshold): the returned value is then ≥ cut
// but not otherwise meaningful, which makes the common "cannot terminate
// yet" case cheap. The miss product saturates at ProbFloor, so returned
// probabilities never resolve closer to 1 than 1−ProbFloor^(1/slots).
//
// Unlike AccessProbability — which only ranks pages to steer the I/O
// batching heuristic and can afford the equal-volume-cube surrogate —
// this estimate gates result quality, so the Euclidean per-region
// fraction comes from the central-limit squared-distance approximation
// (mathx.BoxSphereContainFracEucl): the cube surrogate overestimates
// thin high-dimensional box∩sphere lenses by orders of magnitude
// (pinning the estimate near 1, a dead dial), while sample-based
// integration collapses those same lenses to exactly 0 (premature
// termination on clustered workloads).
func (ps *ProbScratch) ImproveProbability(q vec.Point, met vec.Metric, r float64, regions []Region, slots, cut float64) float64 {
	const maxRegions = 128
	if r <= 0 || len(regions) == 0 {
		return 0
	}
	if slots < 1 {
		slots = 1
	}
	// miss <= missCut ⟺ 1 − miss^(1/slots) >= cut: the early-exit test in
	// product space, precomputed once.
	missCut := 0.0
	if cut < 1 {
		missCut = math.Pow(1-cut, slots)
	}
	if len(regions) > maxRegions {
		regions = regions[:maxRegions]
	}
	eucl := met != vec.Maximum
	d := len(q)
	ps.qf = growF(ps.qf, d)
	ps.lo = growF(ps.lo, d)
	ps.hi = growF(ps.hi, d)
	qf, lo, hi := ps.qf, ps.lo, ps.hi
	for i, v := range q {
		qf[i] = float64(v)
	}
	miss := 1.0
	for _, reg := range regions {
		if reg.MinDist >= r || reg.Count <= 0 {
			continue
		}
		vol := 1.0
		for i := 0; i < d; i++ {
			lo[i] = float64(reg.MBR.Lo[i])
			hi[i] = float64(reg.MBR.Hi[i])
			side := hi[i] - lo[i]
			if side <= 0 {
				side = 1e-12
				hi[i] = lo[i] + side
			}
			vol *= side
		}
		var frac float64
		if eucl {
			frac = mathx.Clamp(mathx.BoxSphereContainFracEucl(lo, hi, qf, r), 0, 1)
		} else {
			frac = mathx.Clamp(mathx.BoxSphereIntersectMax(lo, hi, qf, r)/vol, 0, 1)
		}
		miss *= math.Pow(1-frac, float64(reg.Count))
		if miss < ProbFloor {
			miss = ProbFloor
			break
		}
		if miss <= missCut {
			break
		}
	}
	return 1 - math.Pow(miss, 1/slots)
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Scheduler computes the read batch around a pivot page for the
// time-optimized nearest-neighbor algorithm. Pages are fixed-size and laid
// out consecutively: page i starts at block i·PageBlocks.
type Scheduler struct {
	// Cfg holds the disk parameters.
	Cfg store.Config
	// PageBlocks is the size of one page in blocks.
	PageBlocks int
	// NumPages is the number of pages in the file.
	NumPages int
	// Prob returns the access probability of the page at position pos;
	// it must return 0 for pages already processed or pruned.
	Prob func(pos int) float64
	// Trace, when non-nil, records each Batch decision (pivot and
	// committed extent); the caller fills in the pending count once it
	// knows how many pages of the batch were still needed.
	Trace *obs.QueryTrace
}

// Batch returns the page positions [first, last] to load together with the
// pivot page (paper Sec. 2.1). It extends the sequence forward and then
// backward, accumulating the cost balance
//
//	ccb += t_xfer − a·(t_seek + t_xfer)
//
// committing the extension whenever the balance goes negative, and giving
// up in a direction once the balance exceeds the seek cost.
func (s *Scheduler) Batch(pivot int) (first, last int) {
	txfer := float64(s.PageBlocks) * s.Cfg.Xfer
	first, last = pivot, pivot

	ccb := 0.0
	for i := pivot + 1; i < s.NumPages; i++ {
		a := s.Prob(i)
		ccb += txfer - a*(s.Cfg.Seek+txfer)
		if ccb < 0 {
			last = i
			ccb = 0
		}
		if ccb >= s.Cfg.Seek {
			break
		}
	}

	ccb = 0.0
	for i := pivot - 1; i >= 0; i-- {
		a := s.Prob(i)
		ccb += txfer - a*(s.Cfg.Seek+txfer)
		if ccb < 0 {
			first = i
			ccb = 0
		}
		if ccb >= s.Cfg.Seek {
			break
		}
	}
	s.Trace.AddBatch(obs.BatchDecision{Pivot: pivot, First: first, Last: last})
	return first, last
}

// PageSpan is one contiguous page extent [First, Last] of a cross-query
// round plan (page units, inclusive).
type PageSpan struct {
	First, Last int
}

// Pages returns the number of pages the span covers.
func (p PageSpan) Pages() int { return p.Last - p.First + 1 }

// Contains reports whether page position pos lies inside the span.
func (p PageSpan) Contains(pos int) bool { return pos >= p.First && pos <= p.Last }

// BatchAll plans one scan-sharing round: wants holds every page position
// some in-flight query needs next (duplicates allowed, any order), and
// the scheduler's Prob must already combine the access probabilities of
// all those queries (1 − Π(1 − p_q)). Each uncovered want anchors one
// cumulated-cost-balance extension — the same Batch logic that plans one
// query's pivot, stretched across queries — and overlapping or adjacent
// extents are merged, so the returned spans are disjoint, ascending, and
// cover every want: no block is fetched twice within a round. With a
// single want the plan is exactly [Batch(want)], so one query in flight
// degenerates to the share-nothing schedule.
func (s *Scheduler) BatchAll(wants []int) []PageSpan {
	if len(wants) == 0 {
		return nil
	}
	sorted := append([]int(nil), wants...)
	sort.Ints(sorted)
	var exts []PageSpan
	covered := -1 // highest page already covered by an earlier extent
	for i, p := range sorted {
		if p <= covered || (i > 0 && p == sorted[i-1]) {
			continue
		}
		first, last := s.Batch(p)
		exts = append(exts, PageSpan{First: first, Last: last})
		if last > covered {
			covered = last
		}
	}
	// Backward extension can dip below an earlier extent; merge anything
	// overlapping or adjacent (an adjacent merge is cost-neutral — the
	// second read would have continued seek-free from the first).
	sort.Slice(exts, func(i, j int) bool { return exts[i].First < exts[j].First })
	merged := exts[:1]
	for _, e := range exts[1:] {
		top := &merged[len(merged)-1]
		if e.First <= top.Last+1 {
			if e.Last > top.Last {
				top.Last = e.Last
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}
