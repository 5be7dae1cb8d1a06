package core

import (
	"math/rand"
	"testing"
)

// TestAutoReoptimizeGarbageTrigger: with the garbage trigger armed, a
// long insert stream must (a) start at least one automatic run, (b)
// actually complete a compaction — observable as the garbage ratio
// falling back near zero after a trigger — and (c) leave the tree's
// contents identical to a twin that ran without the policy.
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
		for _, tr := range []*Tree{auto, twin} {
			if err := tr.Insert(tr.sto.NewSession(), p, uint32(100000+i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	}
	if metricAutoReoptTriggers.Value() == before {
		t.Fatalf("garbage trigger never fired (final ratio %v)", auto.GarbageRatio())
	}
	// reoptGen counts completed swaps: at least one automatic run must
	// have finished. (The ratio itself never reaches zero under a write
	// stream — the delta re-apply at every swap immediately creates new
	// garbage — so bounded-versus-unbounded is the observable difference.)
	if auto.reoptGen.Load() == 0 {
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
