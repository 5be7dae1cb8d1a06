package core

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// Automatic reoptimization: instead of an operator deciding when to call
// Reoptimize, a policy watches the pressure updates create — garbage
// blocks in the quantized file (every rewrite appends a new page version
// and strands the old one) — and drives the incremental stepper one
// bounded unit per acknowledged mutation while it persists. Because
// steps interleave with queries and updates, the policy adds no pause:
// the cost is one extra page re-quantization per write while a run is
// active.

// AutoReoptPolicy configures Options.AutoReoptimize. The zero value
// disables automatic reoptimization.
type AutoReoptPolicy struct {
	// GarbageRatio starts an incremental reoptimization once the
	// fraction of dead blocks in the quantized file reaches this value
	// (0 disables the garbage trigger). Sensible values sit in (0,1);
	// e.g. 0.5 rebuilds when half the file is stale page versions.
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
	live := t.load().livePages() * t.opt.QPageBlocks
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
// acknowledged mutation: begin a run when a trigger fires, and advance
// an in-flight run by one step either way. I/O is charged to s. The
// mutation that called it is already durable, so a maintenance error
// surfaces to the caller without undoing anything.
func (t *Tree) autoReoptimize(s *store.Session) error {
	ratio := t.opt.AutoReoptimize.GarbageRatio
	if ratio <= 0 || t.Len() == 0 {
		return nil
	}
	if !t.ReoptimizeRunning() {
		if t.GarbageRatio() < ratio {
			return nil
		}
		metricAutoReoptTriggers.Inc()
	}
	_, err := t.ReoptimizeStep(s)
	return err
}
