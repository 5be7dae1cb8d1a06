package main

import (
	"testing"

	"repro/internal/experiments"
)

// point is one (series, x, y) value of a synthetic figure.
type point struct {
	label string
	x, y  float64
}

// figure builds a synthetic figure from points.
func figure(id string, pts []point) experiments.Figure {
	fig := experiments.Figure{ID: id, XLabel: "x"}
	for _, p := range pts {
		add(&fig, p.label, p.x, p.y)
	}
	return fig
}

// gateCase edits a passing figure's points so that exactly one of the
// gate's thresholds breaks (or, with drop, one needed point is missing).
type gateCase struct {
	name string
	set  []point // values to overwrite; each must already exist
	drop *point  // a point to remove
}

// testGate checks that the passing points pass the gate, and that every
// case's edit makes it fail.
func testGate(t *testing.T, id string, gate func(experiments.Figure) error, passing []point, cases []gateCase) {
	t.Helper()
	if err := gate(figure(id, passing)); err != nil {
		t.Fatalf("passing figure failed: %v", err)
	}
	for _, c := range cases {
		pts := make([]point, 0, len(passing))
		found := 0
		for _, p := range passing {
			if c.drop != nil && p.label == c.drop.label && p.x == c.drop.x {
				found++
				continue
			}
			for _, s := range c.set {
				if p.label == s.label && p.x == s.x {
					p.y = s.y
					found++
				}
			}
			pts = append(pts, p)
		}
		want := len(c.set)
		if c.drop != nil {
			want++
		}
		if found != want {
			t.Fatalf("%s: case edits %d points, the passing figure has %d of them", c.name, want, found)
		}
		if err := gate(figure(id, pts)); err == nil {
			t.Errorf("%s: gate passed, want a failure", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

func TestCheckScaling(t *testing.T) {
	testGate(t, "scaling", checkScaling, []point{
		{"sim qps", 1, 11}, {"sim qps", 2, 22}, {"sim qps", 4, 22}, {"sim qps", 8, 70},
	}, []gateCase{
		{name: "4 workers under 2x", set: []point{{"sim qps", 4, 21.9}}},
		{name: "missing 1-worker point", drop: &point{"sim qps", 1, 0}},
		{name: "missing 4-worker point", drop: &point{"sim qps", 4, 0}},
	})
}

func TestCheckShards(t *testing.T) {
	testGate(t, "shards", checkShards, []point{
		{"speedup", 1, 1}, {"speedup", 2, 1.9}, {"speedup", 4, 2.9}, {"speedup", 8, 3},
		{"mismatched", 1, 0}, {"mismatched", 2, 0}, {"mismatched", 4, 0}, {"mismatched", 8, 0},
		{"chaos lost", 8, 0}, {"chaos mismatched", 8, 0},
		{"chaos failovers", 8, 0}, {"chaos retries", 8, 1},
		{"chaos all serving", 8, 1}, {"chaos rebuilds", 8, 2}, {"chaos mttr s", 8, 30},
	}, []gateCase{
		{name: "mismatch in the sweep", set: []point{{"mismatched", 2, 1}}},
		{name: "speedup under 3x at 8 shards", set: []point{{"speedup", 8, 2.99}}},
		{name: "chaos lost a query", set: []point{{"chaos lost", 8, 1}}},
		{name: "chaos changed an answer", set: []point{{"chaos mismatched", 8, 1}}},
		{name: "no failover or retry", set: []point{{"chaos retries", 8, 0}}},
		{name: "not all serving", set: []point{{"chaos all serving", 8, 0}}},
		{name: "one rebuild", set: []point{{"chaos rebuilds", 8, 1}}},
		{name: "MTTR over budget", set: []point{{"chaos mttr s", 8, 30.01}}},
		{name: "missing sweep point", drop: &point{"mismatched", 4, 0}},
		{name: "missing chaos point", drop: &point{"chaos rebuilds", 8, 0}},
	})
}

func TestCheckIngest(t *testing.T) {
	testGate(t, "ingest", checkIngest, []point{
		{"quiet sim p99 s", ingestWriters, 0.27}, {"reopt sim p99 s", ingestWriters, 0.54},
	}, []gateCase{
		{name: "reopt p99 over 2x quiescent", set: []point{{"reopt sim p99 s", ingestWriters, 0.5401}}},
		{name: "quiescent p99 zero", set: []point{{"quiet sim p99 s", ingestWriters, 0}, {"reopt sim p99 s", ingestWriters, 0}}},
		{name: "missing reopt p99", drop: &point{"reopt sim p99 s", ingestWriters, 0}},
	})
}

func TestCheckApprox(t *testing.T) {
	testGate(t, "approx", checkApprox, []point{
		{"recall", 100, 1}, {"recall", 95, 1}, {"recall", 90, 1}, {"recall", 80, 1},
		{"recall", 60, 0.99}, {"recall", 40, 0.94}, {"recall", 20, 0.85},
		{"sim s", 100, 24}, {"sim s", 95, 21.8}, {"sim s", 90, 20}, {"sim s", 80, 18.5},
		{"sim s", 60, 15}, {"sim s", 40, 15}, {"sim s", 20, 10.9},
		{"speedup", 100, 1}, {"speedup", 95, 1.1}, {"speedup", 90, 1.2}, {"speedup", 80, 1.3},
		{"speedup", 60, 1.5}, {"speedup", 40, 1.9}, {"speedup", 20, 2.2},
	}, []gateCase{
		{name: "recall under 1 at MinRecall 1", set: []point{{"recall", 100, 0.9999}}},
		{name: "latency rises as the dial drops", set: []point{{"sim s", 40, 15.001}}},
		{name: "recall rises as the dial drops", set: []point{{"recall", 20, 0.9451}}},
		{name: "no 1.5x at recall >= 0.95", set: []point{{"speedup", 60, 1.49}}},
		{name: "missing MinRecall 1", drop: &point{"recall", 100, 0}},
		{name: "missing a sweep point", drop: &point{"sim s", 80, 0}},
	})
}

func TestCheckFaults(t *testing.T) {
	x := faultReadErr * 100
	testGate(t, "faults", checkFaults, []point{
		{"transient mismatches", x, 0}, {"read retries", x, 1},
		{"corrupt mismatches", x, 0}, {"checksum failures", x, 1},
		{"quarantined", x, 1}, {"repaired", x, 1}, {"degraded after repair", x, 0},
		{"sheds", x, 1}, {"cancellations", x, 1},
		{"query ratio", x, 1.05}, {"qps ratio", x, 1.05},
	}, []gateCase{
		{name: "transient mismatch", set: []point{{"transient mismatches", x, 1}}},
		{name: "no read retried", set: []point{{"read retries", x, 0}}},
		{name: "corruption mismatch", set: []point{{"corrupt mismatches", x, 1}}},
		{name: "no checksum failure", set: []point{{"checksum failures", x, 0}}},
		{name: "nothing quarantined", set: []point{{"quarantined", x, 0}}},
		{name: "nothing repaired", set: []point{{"repaired", x, 0}}},
		{name: "degraded read after repair", set: []point{{"degraded after repair", x, 1}}},
		{name: "nothing shed", set: []point{{"sheds", x, 0}}},
		{name: "no cancellation", set: []point{{"cancellations", x, 0}}},
		{name: "query overhead over 5%", set: []point{{"query ratio", x, 1.0501}}},
		{name: "QPS overhead over 5%", set: []point{{"qps ratio", x, 1.0501}}},
		{name: "missing point", drop: &point{"repaired", x, 0}},
	})
}
