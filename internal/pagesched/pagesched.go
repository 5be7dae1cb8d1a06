// Package pagesched implements the time-based page access strategies of
// paper Section 2:
//
//   - Scheduler.Batch: the cumulated-cost-balance batching of the
//     time-optimized nearest-neighbor algorithm (Sec. 2.1) — starting from
//     the pivot page, extend the read sequence forward and backward while
//     the expected savings of over-reading probable pages outweigh the
//     transfer cost.
//   - Scheduler.BatchAll: Batch around every wanted page of a round,
//     merged into disjoint spans. With access probabilities 0 and 1 it is
//     the optimal known-set schedule of Fig. 1 (over-read a gap whenever
//     its transfer is cheaper than a seek), so one rule plans range,
//     window and nearest-neighbor reads alike.
//   - AccessProbability: the probability that a page must be loaded later
//     in a nearest-neighbor search (Sec. 2.2, Eq. 2–5).
package pagesched

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/store"
	"repro/internal/vec"
)

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

// Scheduler computes the read batches of the time-optimized
// nearest-neighbor algorithm. Pages are one block each and laid out
// consecutively: page i is block i.
type Scheduler struct {
	// Cfg holds the disk parameters.
	Cfg store.Config
	// NumPages is the number of pages in the file.
	NumPages int
	// Prob returns the access probability of the page at position pos;
	// it must return 0 for pages already processed or pruned.
	Prob func(pos int) float64
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
	txfer := s.Cfg.Xfer
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
	return first, last
}

// PageSpan is one contiguous page extent [First, Last] of a round plan
// (page units, inclusive).
type PageSpan struct {
	First, Last int
}

// BatchAll plans one fetch round and appends its spans to dst: wants
// holds, in ascending order (duplicates allowed), every page position
// the query needs next, and the scheduler's Prob must give 1 for the
// wants themselves. Each uncovered want anchors one
// cumulated-cost-balance extension — the Batch logic that plans a
// nearest-neighbor query's pivot — and overlapping or adjacent extents
// are merged, so the returned spans are disjoint,
// ascending, and cover every want: no block is fetched twice within a
// round. With a single want the plan is exactly [Batch(want)]; with
// probabilities 0 and 1 it is the known-set schedule of paper Fig. 1.
// A dst with enough capacity makes the call allocation-free.
func (s *Scheduler) BatchAll(dst []PageSpan, wants []int) []PageSpan {
	base := len(dst)
	covered := -1 // highest page already covered by an earlier extent
	for _, p := range wants {
		if p <= covered {
			continue
		}
		first, last := s.Batch(p)
		covered = last
		// Backward extension can dip below earlier extents; absorb every
		// one it overlaps or touches (an adjacent merge is cost-neutral —
		// the second read would have continued seek-free from the first).
		for len(dst) > base && dst[len(dst)-1].Last+1 >= first {
			first = min(first, dst[len(dst)-1].First)
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, PageSpan{First: first, Last: last})
	}
	return dst
}
