package core

import (
	"math/rand"
	"testing"
)

// TestAutoReoptimizeGarbageTrigger: with the garbage trigger armed, a
// long insert stream must (a) start at least one automatic run, (b)
// actually compact, and (c) leave the tree's contents identical to a
// twin that ran without the policy. Compacting is checked right after
// every completed automatic swap: the swap rewrites each page the run's
// inserts touched once, so the new generation's garbage — the superseded
// planned pages — never exceeds its live pages, and the ratio is at most
// 1/2. On this 4–8-page tree a run's few writes touch half to all of the
// pages, so the ratio after a swap can still sit above a 0.4 trigger.
func TestAutoReoptimizeGarbageTrigger(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := randPoints(r, 500, 6)
	extra := randPoints(r, 600, 6)

	opt := DefaultOptions()
	opt.AutoReoptimize = AutoReoptPolicy{GarbageRatio: 0.4}
	auto := buildTree(t, base, opt)
	twin := buildTree(t, base, DefaultOptions())

	before := metricAutoReoptTriggers.Value()
	for i, p := range extra {
		swaps := auto.gen
		for _, tr := range []*Tree{auto, twin} {
			if err := tr.Insert(tr.sto.NewSession(), p, uint32(100000+i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		if auto.gen != swaps {
			if g := auto.GarbageRatio(); g > 0.5 {
				t.Fatalf("insert %d: garbage ratio %.3f right after a swap, want ≤ 0.5", i, g)
			}
		}
	}
	if metricAutoReoptTriggers.Value() == before {
		t.Fatalf("garbage trigger never fired (final ratio %v)", auto.GarbageRatio())
	}
	// gen counts completed swaps: at least one automatic run must
	// have finished.
	if auto.gen == 0 {
		t.Fatalf("no automatic run completed (final ratio %v, running %v)",
			auto.GarbageRatio(), auto.ReoptimizeRunning())
	}
	if ag, tg := auto.GarbageRatio(), twin.GarbageRatio(); ag >= tg {
		t.Fatalf("policy did not bound garbage: auto %v, policy-free twin %v", ag, tg)
	}

	// Same logical contents as the policy-free twin.
	assertSamePoints(t, auto, twin)
	for _, q := range randPoints(r, 10, 6) {
		a, b := mustKNN(t, auto, q, 5), mustKNN(t, twin, q, 5)
		if len(a) != len(b) {
			t.Fatalf("KNN %d results, twin %d", len(a), len(b))
		}
		for i := range a {
			if !sameNeighbor(a[i], b[i]) {
				t.Fatalf("KNN[%d]: %+v, twin %+v", i, a[i], b[i])
			}
		}
	}
}

// TestAutoReoptimizeDisabledByDefault: the zero policy must never step.
func TestAutoReoptimizeDisabledByDefault(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	base := randPoints(r, 300, 4)
	tr := buildTree(t, base, DefaultOptions())
	for i, p := range randPoints(r, 200, 4) {
		if err := tr.Insert(tr.sto.NewSession(), p, uint32(700000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.ReoptimizeRunning() {
		t.Fatal("zero policy started a reoptimization")
	}
	if g := tr.GarbageRatio(); g <= 0 {
		t.Fatalf("insert stream produced no garbage (ratio %v) — the trigger tests assume it does", g)
	}
}

// TestAutoReoptimizeBoundsGarbage: the policy's ratio is a bound, not
// just a trigger. The rebuild keeps pace with the writes, so a run ends
// before the old generation can double and the garbage ratio peaks near
// 1 − (1−r)/(2−r), 2/3 at r = 0.5; after every acknowledged insert batch
// it must be at most 0.75, the 2/3 ceiling plus one batch's pages on a
// ~40-page tree. A completed swap compacts: right after it the ratio is
// below the trigger, so the next batch does not begin another run.
func TestAutoReoptimizeBoundsGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	opt := DefaultOptions()
	opt.AutoReoptimize = AutoReoptPolicy{GarbageRatio: 0.5}
	tr := buildTree(t, randPoints(r, 20000, 16), opt)
	s := tr.sto.NewSession()
	for b := 0; b < 60; b++ {
		pts := randPoints(r, 16, 16)
		ids := make([]uint32, len(pts))
		for i := range ids {
			ids[i] = uint32(100000 + 16*b + i)
		}
		swaps := tr.gen
		if err := tr.InsertBatch(s, pts, ids); err != nil {
			t.Fatal(err)
		}
		g := tr.GarbageRatio()
		if g > 0.75 {
			t.Fatalf("batch %d: garbage ratio %.3f > 0.75 on %d live pages", b, g, tr.NumPages())
		}
		if tr.gen != swaps && g >= opt.AutoReoptimize.GarbageRatio {
			t.Fatalf("batch %d: garbage ratio %.3f right after a swap, want below the trigger", b, g)
		}
	}
	if n := tr.gen; n < 2 {
		t.Fatalf("%d automatic swaps in 60 batches, want ≥ 2", n)
	}
}
