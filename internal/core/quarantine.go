package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/store"
)

// Quarantine: when a read of the quantized file fails checksum
// verification (*store.CorruptBlockError), the damaged physical page
// position is quarantined on the query's generation. Searches skip
// quarantined pages' quantized representation and answer from the
// corresponding exact (level-3) page instead — the IQ-tree's own
// structure makes the degradation exact, because every compressed
// page's exact page holds strictly more information than its quantized
// approximation. Results stay bit-identical to a clean run; only the
// cost degrades (an exact page read replaces the filter step).
//
// The quarantine is keyed by physical page position within one
// generation's quantized file, so an update that rewrites the page out
// of place (new position) heals the entry automatically; Repair does
// exactly that for every quarantined live page, and a reoptimization
// swap leaves the set behind with the generation it retires — the next
// generation starts with an empty one.
//
// 32-bit (exact-mode) level-2 pages store the only copy of their points
// and have no level-3 shadow: corruption there is unrecoverable and
// surfaces as a typed error wrapping ErrUnrecoverable (never a silently
// wrong result).

// ErrUnrecoverable marks corruption with no redundant copy to recover
// from: a corrupt exact-mode (32-bit) level-2 page.
var ErrUnrecoverable = errors.New("core: page unrecoverable")

var (
	metricQuarantines   = obs.Default().Counter("core.quarantines")
	metricDegradedReads = obs.Default().Counter("core.degraded_reads")
	metricRepairedPages = obs.Default().Counter("core.repaired_pages")
)

// corruptQPage reports whether err is a checksum failure in g's
// quantized file — the only file with a level-3 fallback.
func (g *generation) corruptQPage(err error) bool {
	var cbe *store.CorruptBlockError
	return errors.As(err, &cbe) && cbe.File == g.q.Name()
}

// unrecoverablePage builds the typed error for a corrupt exact-mode page.
func unrecoverablePage(pos, entry int) error {
	return fmt.Errorf("core: quantized page %d (entry %d) stores exact data with no level-3 shadow: %w",
		pos, entry, ErrUnrecoverable)
}

// quarantinePage marks the physical page position as damaged.
func (g *generation) quarantinePage(pos int) {
	g.quarMu.Lock()
	defer g.quarMu.Unlock()
	if g.quar == nil {
		g.quar = make(map[int]struct{})
	}
	if _, ok := g.quar[pos]; ok {
		return
	}
	g.quar[pos] = struct{}{}
	metricQuarantines.Inc()
}

// isQuarantined reports whether the physical page position is damaged.
func (g *generation) isQuarantined(pos int) bool {
	g.quarMu.Lock()
	defer g.quarMu.Unlock()
	_, ok := g.quar[pos]
	return ok
}

// anyQuarantinedIn reports whether any position in [first, last] is
// quarantined (used to keep batch reads from spanning known damage).
func (g *generation) anyQuarantinedIn(first, last int) bool {
	g.quarMu.Lock()
	defer g.quarMu.Unlock()
	for pos := range g.quar {
		if pos >= first && pos <= last {
			return true
		}
	}
	return false
}

// QuarantinedPages returns the quarantined physical page positions of
// the live generation in sorted order. Positions may outlive the entries
// that were damaged (a rewrite moves the entry to a fresh position but
// the old blocks stay damaged at rest until Reoptimize compacts them
// away).
func (t *Tree) QuarantinedPages() []int {
	g := t.load().gen
	g.quarMu.Lock()
	defer g.quarMu.Unlock()
	out := make([]int, 0, len(g.quar))
	for pos := range g.quar {
		out = append(out, pos)
	}
	sort.Ints(out)
	return out
}

// DegradedEntries returns the directory indices of live pages currently
// served from their exact shadow because their quantized page is
// quarantined. Empty after a successful Repair.
func (t *Tree) DegradedEntries() []int {
	sn := t.load()
	var out []int
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		if sn.gen.isQuarantined(int(e.QPos)) {
			out = append(out, i)
		}
	}
	return out
}

// Repair rewrites every quarantined live page from its exact (level-3)
// page: the points are re-read from the undamaged exact copy,
// re-quantized at the page's level, and appended out of place like any
// update, so the repaired entry points at fresh, checksummed blocks and
// queries stop paying the degraded-read cost. It returns the number of
// pages repaired. Repair cannot fix a corrupt exact-mode (32-bit) page —
// that has no redundant copy — and reports it via ErrUnrecoverable;
// Reoptimize (over the surviving points) or a restore is needed then.
// Each page is published as it is repaired, so the pages repaired
// before such an error stay repaired.
func (t *Tree) Repair(s *store.Session) (int, error) {
	repaired := 0
	for {
		ok, err := t.repairOne(s)
		if err != nil || !ok {
			return repaired, err
		}
		repaired++
	}
}
