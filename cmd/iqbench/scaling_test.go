package main

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
)

// TestMakespan: query i runs on lane i mod lanes, and the busiest lane's
// sum is the makespan, whichever lane that is.
func TestMakespan(t *testing.T) {
	for _, c := range []struct {
		name  string
		sims  []float64
		lanes int
		want  float64
	}{
		{"no queries", nil, 4, 0},
		{"one lane sums everything", []float64{1, 2, 3}, 1, 6},
		{"round robin", []float64{1, 2, 3, 4, 5}, 2, 9},
		{"busiest lane is not the first", []float64{1, 5, 1, 5}, 2, 10},
		{"more lanes than queries", []float64{3, 1}, 4, 3},
		{"dealt by index, not to the idlest lane", []float64{5, 1, 1, 1}, 2, 6},
	} {
		if got := makespan(c.sims, c.lanes); got != c.want {
			t.Errorf("%s: makespan(%v, %d) = %v, want %v", c.name, c.sims, c.lanes, got, c.want)
		}
	}
}

// TestFleetMakespan: each shard deals only the sub-queries it answered to
// its own lanes, and the slowest shard sets the time.
func TestFleetMakespan(t *testing.T) {
	sub := func(sims ...float64) shard.Result {
		res := shard.Result{Shards: make([]engine.Result, len(sims))}
		for s, sim := range sims {
			res.Shards[s].SimTime = sim
		}
		return res
	}
	// Shard 1 does not answer the second query, so its two answers go to
	// its two lanes (3 each) instead of both to lane 0 (6).
	results := []shard.Result{sub(1, 3), sub(1, 0), sub(1, 3)}
	if got := fleetMakespan(results, 2); got != 3 {
		t.Fatalf("fleetMakespan = %v, want 3", got)
	}
	if got := fleetMakespan(results, 1); got != 6 {
		t.Fatalf("fleetMakespan with one lane = %v, want 6 (shard 1's 3+3)", got)
	}
}
