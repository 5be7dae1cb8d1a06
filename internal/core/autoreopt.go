package core

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// Automatic reoptimization: instead of an operator deciding when to call
// Reoptimize, a policy watches the garbage updates create — dead blocks
// in the quantized file (every rewrite appends a new page version and
// strands the old one) — and begins an incremental run when it reaches
// the configured ratio. While a run is in flight, each acknowledged
// mutation keeps stepping it until the next generation holds as many
// written pages as the live quantized file has grown since the pin, so
// the rebuild keeps pace with the writes and ends before the old
// generation can double: at the trigger the old file is 1/(1−r) of the
// live pages and a run adds about one live-page count more, so the ratio
// peaks near 1 − (1−r)/(2−r) (2/3 at r = 0.5). The steps stay on the
// write path, spread over the writes, and add no pause beyond the one
// run's plan step and its swap.

// AutoReoptPolicy configures Options.AutoReoptimize. The zero value
// disables automatic reoptimization.
type AutoReoptPolicy struct {
	// GarbageRatio starts an incremental reoptimization once the
	// fraction of dead blocks in the quantized file reaches this value
	// (0 disables the policy). Sensible values sit in (0,1); e.g. 0.5
	// rebuilds when half the file is stale page versions, and the
	// paced run keeps the fraction below about 2/3.
	GarbageRatio float64
}

var metricAutoReoptTriggers = obs.Default().Counter("reopt.auto_triggers")

// GarbageRatio returns the fraction of the quantized file occupied by
// dead page versions: blocks beyond the live pages' footprint,
// accumulated by out-of-place rewrites since the last compaction.
func (t *Tree) GarbageRatio() float64 {
	t.world.RLock()
	defer t.world.RUnlock()
	total := t.qFile.Blocks()
	if total <= 0 {
		return 0
	}
	live := t.load().livePages()
	g := float64(total-live) / float64(total)
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// autoReoptimize runs the Options.AutoReoptimize policy after an
// acknowledged mutation: with no run in flight, begin one when the
// garbage ratio reaches the trigger; with one in flight, step it at
// least once and until it has caught up with the live quantized file's
// growth (reoptBehind). I/O is charged to s. The mutation that called
// it is already durable, so a maintenance error surfaces to the caller
// without undoing anything.
func (t *Tree) autoReoptimize(s *store.Session) error {
	ratio := t.opt.AutoReoptimize.GarbageRatio
	if ratio <= 0 || t.Len() == 0 {
		return nil
	}
	t.reoptMu.Lock()
	defer t.reoptMu.Unlock()
	if t.reopt == nil {
		if t.GarbageRatio() < ratio {
			return nil
		}
		metricAutoReoptTriggers.Inc()
	}
	for {
		done, err := t.reoptStep(s)
		if err != nil || done || !t.reoptBehind() {
			return err
		}
	}
}
