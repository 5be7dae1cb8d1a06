package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata")

// TestQueryCostGolden pins the per-query cost and answer of a seeded
// query mix: session Stats, the trace's label, batch decisions and page
// funnel, and every (ID, Dist) of the result. Any change to planning,
// page accounting, pruning or refinement shows up as a diff against the
// committed golden. Regenerate (only for an intended cost change) with
//
//	go test ./internal/core -run TestQueryCostGolden -update-golden
func TestQueryCostGolden(t *testing.T) {
	var b strings.Builder
	r := rand.New(rand.NewSource(101))
	pts := randPoints(r, 3000, 8)
	queries := randPoints(r, 6, 8)

	for _, cfg := range []struct {
		name string
		mut  func(*Options)
	}{
		{"optimized", func(*Options) {}},
		{"single-page-io", func(o *Options) { o.OptimizedIO = false }},
		{"fixed8", func(o *Options) { o.FixedBits = 8 }},
	} {
		opt := DefaultOptions()
		opt.FractalDim = 4
		cfg.mut(&opt)
		tr := buildTree(t, pts, opt)
		for i, q := range queries {
			k := 1 + i*3
			goldenQuery(t, &b, fmt.Sprintf("%s knn k=%d q%d", cfg.name, k, i), tr.sto,
				func(s *store.Session) ([]Neighbor, error) { return tr.KNN(s, q, k) })
		}
		if cfg.name != "optimized" {
			continue
		}
		for i, q := range queries {
			goldenQuery(t, &b, fmt.Sprintf("approx recall=0.9 q%d", i), tr.sto,
				func(s *store.Session) ([]Neighbor, error) {
					return tr.KNNApprox(s, q, 10, 0.9)
				})
			goldenQuery(t, &b, fmt.Sprintf("range q%d", i), tr.sto,
				func(s *store.Session) ([]Neighbor, error) { return tr.RangeSearch(s, q, 0.45) })
			w := vec.MBR{Lo: make(vec.Point, len(q)), Hi: make(vec.Point, len(q))}
			for j, v := range q {
				w.Lo[j], w.Hi[j] = v-0.3, v+0.3
			}
			goldenQuery(t, &b, fmt.Sprintf("window q%d", i), tr.sto,
				func(s *store.Session) ([]Neighbor, error) { return tr.WindowQuery(s, w) })
		}
	}

	// Degraded reads: corrupt compressed pages beneath the checksum layer
	// so queries quarantine them and answer from the exact level.
	sto, tr, _ := buildCheckedTree(t, 103, 2500, 8, DefaultOptions())
	comp := compressedPages(tr)
	for _, qpos := range []int{comp[0], comp[len(comp)/3], comp[2*len(comp)/3]} {
		flipQPageBit(t, sto, qpos)
	}
	for i, q := range queries {
		goldenQuery(t, &b, fmt.Sprintf("degraded knn q%d", i), sto,
			func(s *store.Session) ([]Neighbor, error) { return tr.KNN(s, q, 5) })
		goldenQuery(t, &b, fmt.Sprintf("degraded range q%d", i), sto,
			func(s *store.Session) ([]Neighbor, error) { return tr.RangeSearch(s, q, 0.5) })
	}

	checkGolden(t, "query_costs.golden", b.String())
}

// checkGolden compares got with the file of that name under testdata,
// line by line, or with -update-golden writes got there.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d differs:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

func ff(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// goldenQuery runs one query on a fresh traced session and appends its
// cost, trace and answer to b.
func goldenQuery(t *testing.T, b *strings.Builder, name string, sto *store.Store,
	run func(s *store.Session) ([]Neighbor, error)) {
	t.Helper()
	s := sto.NewSession()
	tr := obs.NewQueryTrace("")
	s.SetTrace(tr)
	res, err := run(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st := s.Stats
	fmt.Fprintf(b, "%s | seeks=%d blocks=%d reads=%d cpu=%s | label=%q costs=%s/%s\n",
		name, st.Seeks, st.BlocksRead, st.Reads, ff(st.CPUSeconds), tr.Label, ff(tr.SeekCost), ff(tr.XferCost))
	fmt.Fprintf(b, "  funnel pages=%d pruned=%d cand=%d refine=%d/%d degraded=%d skipped=%d term=%v/%s\n",
		tr.PagesRead, tr.PagesPruned, tr.Candidates, tr.Refinements, tr.RefinedPoints,
		tr.DegradedReads, tr.SkippedPages, tr.Terminated, ff(tr.TermProb))
	b.WriteString("  batches")
	for _, bd := range tr.Batches {
		fmt.Fprintf(b, " %d:[%d,%d]/%d", bd.Pivot, bd.First, bd.Last, bd.Pending)
	}
	b.WriteString("\n")
	b.WriteString("  results")
	for _, nb := range res {
		fmt.Fprintf(b, " %d@%s", nb.ID, ff(nb.Dist))
	}
	b.WriteString("\n")
}
