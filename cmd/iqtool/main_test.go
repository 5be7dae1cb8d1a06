package main

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// TestCompetitorsShareTheMetric: -compare builds its competitors under
// the IQ-tree's metric, so under the maximum metric every competitor
// returns the scan's exact neighbours and the printed ratios compare
// queries of one metric.
func TestCompetitorsShareTheMetric(t *testing.T) {
	pts, err := dataset.Generate(dataset.Uniform, 1, 2000+8, 8)
	if err != nil {
		t.Fatal(err)
	}
	db, qs := dataset.Split(pts, 8)
	others, err := competitors(db, vec.Maximum)
	if err != nil {
		t.Fatal(err)
	}
	ref := others[len(others)-1]
	if ref.name != "Scan" {
		t.Fatalf("last competitor is %s, want the scan", ref.name)
	}
	const k = 10
	for qi, q := range qs {
		want, err := ref.idx.KNN(ref.sto.NewSession(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range others[:len(others)-1] {
			got, err := c.idx.KNN(c.sto.NewSession(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d neighbours, scan %d", c.name, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("%s query %d rank %d: id %d, scan id %d under %v", c.name, qi, i, got[i].ID, want[i].ID, vec.Maximum)
				}
			}
		}
	}
}
