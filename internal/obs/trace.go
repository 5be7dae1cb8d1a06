package obs

import (
	"fmt"
	"strings"
)

// LevelTrace accumulates the charged cost of one file (= one level of the
// IQ-tree: directory, quantized, exact) during a traced query. The
// counter fields mirror the session's Stats exactly: pool hits are kept
// separate (CachedBlocks) because they charge no simulated time.
type LevelTrace struct {
	File         string
	Seeks        int
	Blocks       int
	Reads        int
	Writes       int
	CachedBlocks int     // blocks served by the buffer pool (zero cost)
	SharedBlocks int     // blocks delivered by another query's fetch (zero cost)
	CPUSeconds   float64 // CPU attributed to this level
	DistCPU      float64 // … of which exact distance computations
	ApproxCPU    float64 // … of which approximation decode/bound work
}

// Time returns the level's simulated time under the given per-seek and
// per-block costs.
func (l *LevelTrace) Time(seek, xfer float64) float64 {
	return float64(l.Seeks)*seek + float64(l.Blocks)*xfer + l.CPUSeconds
}

// BatchDecision records one scheduler decision: the contiguous page run
// [First, Last] loaded around Pivot (Pivot < 0 for known-set runs of
// range-style queries, where no pivot exists). Pending counts the pages
// of the run that were still needed when it was scheduled; the rest were
// over-read because transferring them was cheaper than seeking past.
type BatchDecision struct {
	Pivot   int
	First   int
	Last    int
	Pending int
}

// Pages returns the number of pages transferred by the batch.
func (b BatchDecision) Pages() int { return b.Last - b.First + 1 }

// QueryTrace records the physical work of one query: per-level cost, the
// page scheduler's batch decisions, and the funnel from scheduled pages
// through candidates to exact-geometry refinements. Attached to a store
// session (Session.SetTrace) it is the session's per-level cost ledger:
// the session records every charge in it through the Observe methods.
//
// All recording methods are nil-safe: calling them on a nil *QueryTrace
// is a no-op, so query code traces unconditionally and pays only a nil
// check when tracing is off.
type QueryTrace struct {
	// Label names the query (e.g. "knn k=10"); set by the traced query
	// entry points when empty.
	Label string

	// Levels holds per-file cost in first-touch order.
	Levels []*LevelTrace

	// Batches lists the scheduler's read-batch decisions in order.
	Batches []BatchDecision

	// PagesRead counts quantized pages transferred (including over-read).
	PagesRead int
	// PagesPruned counts transferred pages that contributed nothing
	// (already processed, logically deleted, or pruned by the current
	// search bound before decoding).
	PagesPruned int
	// Candidates counts point approximations that entered the candidate
	// set (could not be decided on the quantized representation alone).
	Candidates int
	// Refinements counts third-level exact-page accesses.
	Refinements int
	// RefinedPoints counts individual points resolved against exact
	// geometry (several per exact-page access when candidates share a
	// partition).
	RefinedPoints int
	// DegradedReads counts pages answered from their exact (level-3)
	// shadow because the quantized page was quarantined after a checksum
	// failure. Results stay exact; only the cost degrades.
	DegradedReads int
	// SharedPages counts quantized pages this query consumed from another
	// query's fetch under scan sharing. The leader query's trace carries
	// the transfer (PagesRead); shared pages charge nothing here, so they
	// are excluded from Totals — keeping trace totals equal to the
	// session's Stats in shared mode too.
	SharedPages int
	// SkippedPages counts pending pages the approximate execution mode
	// left unfetched after its stopping rule fired (0 for exact queries).
	// Skipped pages charge nothing — they are exactly the reads that were
	// not performed — so they are excluded from Totals and trace totals
	// still equal the session's Stats.
	SkippedPages int
	// TermProb is the estimated probability, recorded when the
	// approximate stopping rule fired, that some skipped page could still
	// have improved the result: the value that dropped below ε.
	// Meaningful only when Terminated is set (a probability of 0 is
	// legitimate).
	TermProb float64
	// Terminated reports that the approximate stopping rule fired.
	Terminated bool

	// SeekCost and XferCost are the per-seek and per-block simulated
	// costs used to render counter sums as seconds (set by SetCosts).
	SeekCost float64
	XferCost float64

	// last caches the most recently touched level: traces see at most a
	// handful of files (one per tree level) but thousands of events, and
	// consecutive events usually hit the same file.
	last *LevelTrace
}

// NewQueryTrace returns an empty trace with the given label.
func NewQueryTrace(label string) *QueryTrace { return &QueryTrace{Label: label} }

// SetCosts records the per-seek and per-block simulated costs so the
// trace can render times. Nil-safe.
func (t *QueryTrace) SetCosts(seek, xfer float64) {
	if t == nil {
		return
	}
	t.SeekCost, t.XferCost = seek, xfer
}

// SetLabel sets the label unless one is already present. Nil-safe.
func (t *QueryTrace) SetLabel(label string) {
	if t == nil || t.Label != "" {
		return
	}
	t.Label = label
}

// Level returns (creating if needed) the per-level accumulator for file.
// A linear scan beats a map here: a query touches at most a few files.
func (t *QueryTrace) Level(file string) *LevelTrace {
	if t.last != nil && t.last.File == file {
		return t.last
	}
	for _, l := range t.Levels {
		if l.File == file {
			t.last = l
			return l
		}
	}
	l := &LevelTrace{File: file}
	t.Levels = append(t.Levels, l)
	t.last = l
	return l
}

// ObserveRead records one read operation against the named file. For
// ReadPoolHit and ReadShared events seeks is 0 and blocks counts the
// blocks served at zero simulated cost; for the other tiers the values
// mirror the session's cost charge exactly. Nil-safe.
func (t *QueryTrace) ObserveRead(file string, seeks, blocks int, tier ReadTier) {
	if t == nil {
		return
	}
	l := t.Level(file)
	if tier == ReadPoolHit {
		l.CachedBlocks += blocks
		return
	}
	if tier == ReadShared {
		l.SharedBlocks += blocks
		return
	}
	l.Seeks += seeks
	l.Blocks += blocks
	l.Reads++
}

// ObserveCPU records one CPU charge, attributed to the named file (""
// when unattributed), in seconds. Nil-safe.
func (t *QueryTrace) ObserveCPU(file string, kind CPUKind, seconds float64) {
	if t == nil {
		return
	}
	l := t.Level(file)
	l.CPUSeconds += seconds
	switch kind {
	case CPUDist:
		l.DistCPU += seconds
	case CPUApprox:
		l.ApproxCPU += seconds
	}
}

// ObserveWrite records one charged write operation (maintenance path):
// seeks and blocks mirror the session's charge. Nil-safe.
func (t *QueryTrace) ObserveWrite(file string, seeks, blocks int) {
	if t == nil {
		return
	}
	l := t.Level(file)
	l.Seeks += seeks
	l.Blocks += blocks
	l.Writes++
}

// AddBatch appends one scheduler decision. Nil-safe.
func (t *QueryTrace) AddBatch(b BatchDecision) {
	if t == nil {
		return
	}
	t.Batches = append(t.Batches, b)
}

// AddPages counts n quantized pages as transferred. Nil-safe.
func (t *QueryTrace) AddPages(n int) {
	if t == nil {
		return
	}
	t.PagesRead += n
}

// AddPruned counts n transferred pages as contributing nothing. Nil-safe.
func (t *QueryTrace) AddPruned(n int) {
	if t == nil {
		return
	}
	t.PagesPruned += n
}

// AddCandidates counts n point approximations entering the candidate
// set. Nil-safe.
func (t *QueryTrace) AddCandidates(n int) {
	if t == nil {
		return
	}
	t.Candidates += n
}

// AddDegraded counts n pages served from their exact shadow instead of
// their (quarantined) quantized representation. Nil-safe.
func (t *QueryTrace) AddDegraded(n int) {
	if t == nil {
		return
	}
	t.DegradedReads += n
}

// AddShared counts n quantized pages consumed from another query's
// fetch (scan sharing; zero cost for this query). Nil-safe.
func (t *QueryTrace) AddShared(n int) {
	if t == nil {
		return
	}
	t.SharedPages += n
}

// AddSkipped counts n pending pages left unfetched by the approximate
// stopping rule. Nil-safe.
func (t *QueryTrace) AddSkipped(n int) {
	if t == nil {
		return
	}
	t.SkippedPages += n
}

// NoteTermination records that the approximate stopping rule fired, with
// the remaining-improvement probability it observed. Nil-safe.
func (t *QueryTrace) NoteTermination(prob float64) {
	if t == nil {
		return
	}
	t.Terminated = true
	t.TermProb = prob
}

// AddRefinement counts one exact-page access resolving points exact
// points. Nil-safe.
func (t *QueryTrace) AddRefinement(points int) {
	if t == nil {
		return
	}
	t.Refinements++
	t.RefinedPoints += points
}

// Totals sums the charged counters across all levels. The result matches
// the session's aggregate Stats exactly (pool hits excluded, as they
// charge nothing).
func (t *QueryTrace) Totals() (seeks, blocks, reads int, cpuSeconds float64) {
	if t == nil {
		return
	}
	for _, l := range t.Levels {
		seeks += l.Seeks
		blocks += l.Blocks
		reads += l.Reads
		cpuSeconds += l.CPUSeconds
	}
	return
}

// Time returns the total simulated seconds of the traced query.
func (t *QueryTrace) Time() float64 {
	if t == nil {
		return 0
	}
	seeks, blocks, _, cpu := t.Totals()
	return float64(seeks)*t.SeekCost + float64(blocks)*t.XferCost + cpu
}

// CachedBlocks returns the total blocks served by the buffer pool.
func (t *QueryTrace) CachedBlocks() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, l := range t.Levels {
		n += l.CachedBlocks
	}
	return n
}

// SharedBlocks returns the total blocks delivered by other queries'
// fetches under scan sharing (zero cost for this query).
func (t *QueryTrace) SharedBlocks() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, l := range t.Levels {
		n += l.SharedBlocks
	}
	return n
}

// Format renders the trace as a human-readable query plan: a per-level
// cost table followed by the scheduler's decisions and the candidate/
// refinement funnel.
func (t *QueryTrace) Format() string {
	if t == nil {
		return "(no trace)"
	}
	var b strings.Builder
	label := t.Label
	if label == "" {
		label = "query"
	}
	fmt.Fprintf(&b, "trace: %s — %.4fs simulated\n", label, t.Time())
	fmt.Fprintf(&b, "  %-12s %6s %7s %6s %7s %9s %9s %9s %10s\n",
		"level", "seeks", "blocks", "ops", "cached", "seek(s)", "xfer(s)", "cpu(s)", "total(s)")
	var ts, tb, to, tc int
	var tcpu float64
	for _, l := range t.Levels {
		ops := l.Reads + l.Writes
		fmt.Fprintf(&b, "  %-12s %6d %7d %6d %7d %9.4f %9.4f %9.4f %10.4f\n",
			l.File, l.Seeks, l.Blocks, ops, l.CachedBlocks,
			float64(l.Seeks)*t.SeekCost, float64(l.Blocks)*t.XferCost,
			l.CPUSeconds, l.Time(t.SeekCost, t.XferCost))
		ts += l.Seeks
		tb += l.Blocks
		to += ops
		tc += l.CachedBlocks
		tcpu += l.CPUSeconds
	}
	fmt.Fprintf(&b, "  %-12s %6d %7d %6d %7d %9.4f %9.4f %9.4f %10.4f\n",
		"total", ts, tb, to, tc,
		float64(ts)*t.SeekCost, float64(tb)*t.XferCost, tcpu, t.Time())
	if len(t.Batches) > 0 {
		fmt.Fprintf(&b, "  batches: %d —", len(t.Batches))
		max := len(t.Batches)
		const shown = 8
		if max > shown {
			max = shown
		}
		for _, dec := range t.Batches[:max] {
			if dec.Pivot >= 0 {
				fmt.Fprintf(&b, " [pivot %d: pages %d..%d, %d pending]", dec.Pivot, dec.First, dec.Last, dec.Pending)
			} else {
				fmt.Fprintf(&b, " [run: pages %d..%d, %d pending]", dec.First, dec.Last, dec.Pending)
			}
		}
		if len(t.Batches) > shown {
			fmt.Fprintf(&b, " … (%d more)", len(t.Batches)-shown)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  pages: %d scheduled, %d pruned; candidates: %d; refinements: %d accesses / %d points\n",
		t.PagesRead, t.PagesPruned, t.Candidates, t.Refinements, t.RefinedPoints)
	if t.DegradedReads > 0 {
		fmt.Fprintf(&b, "  DEGRADED: %d pages answered from their exact shadow (quantized page quarantined)\n", t.DegradedReads)
	}
	if tc > 0 {
		fmt.Fprintf(&b, "  buffer pool: %d blocks served from cache (zero simulated cost)\n", tc)
	}
	if t.SharedPages > 0 {
		fmt.Fprintf(&b, "  scan sharing: %d pages (%d blocks) delivered by other queries' fetches (zero cost here)\n",
			t.SharedPages, t.SharedBlocks())
	}
	if t.Terminated {
		fmt.Fprintf(&b, "  APPROX: terminated early, %d pages skipped, remaining improvement probability %.2e\n",
			t.SkippedPages, t.TermProb)
	}
	return b.String()
}
