package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *QueryTrace
	tr.ObserveRead("f", 1, 2, ReadBackend)
	tr.ObserveCPU("f", CPUDist, 0.5)
	tr.ObserveWrite("f", 1, 2)
	tr.AddBatch(BatchDecision{})
	tr.AddPages(1)
	tr.AddPruned(1)
	tr.AddCandidates(1)
	tr.AddRefinement(2)
	tr.SetCosts(1, 2)
	tr.SetLabel("x")
	if got := tr.Time(); got != 0 {
		t.Fatalf("nil trace Time = %v, want 0", got)
	}
	if s, b, r, c := tr.Totals(); s != 0 || b != 0 || r != 0 || c != 0 {
		t.Fatalf("nil trace Totals = %d %d %d %v", s, b, r, c)
	}
	if tr.Format() != "(no trace)" {
		t.Fatalf("nil trace Format = %q", tr.Format())
	}
}

func TestTraceAccumulation(t *testing.T) {
	tr := NewQueryTrace("knn k=3")
	tr.SetCosts(0.01, 0.001)
	tr.ObserveRead("iq.dir", 1, 4, ReadBackend)
	tr.ObserveRead("iq.quant", 1, 8, ReadPoolMiss)
	tr.ObserveRead("iq.quant", 0, 8, ReadPoolHit) // cached: no cost
	tr.ObserveRead("iq.exact", 1, 2, ReadBackend)
	tr.ObserveCPU("iq.quant", CPUApprox, 0.002)
	tr.ObserveCPU("iq.exact", CPUDist, 0.003)
	tr.ObserveCPU("", CPUOther, 0.001)

	seeks, blocks, reads, cpu := tr.Totals()
	if seeks != 3 || blocks != 14 || reads != 3 {
		t.Fatalf("Totals = %d seeks %d blocks %d reads", seeks, blocks, reads)
	}
	if diff := cpu - 0.006; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("cpu = %v, want 0.006", cpu)
	}
	want := 3*0.01 + 14*0.001 + 0.006
	if diff := tr.Time() - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Time = %v, want %v", tr.Time(), want)
	}
	if tr.CachedBlocks() != 8 {
		t.Fatalf("CachedBlocks = %d, want 8", tr.CachedBlocks())
	}
	q := tr.Level("iq.quant")
	if q.ApproxCPU != 0.002 || q.CachedBlocks != 8 {
		t.Fatalf("quant level = %+v", q)
	}

	out := tr.Format()
	for _, want := range []string{"knn k=3", "iq.dir", "iq.quant", "iq.exact", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTraceBatchesAndFunnel(t *testing.T) {
	tr := NewQueryTrace("")
	tr.SetLabel("range r=0.2")
	tr.SetLabel("ignored") // label already set
	if tr.Label != "range r=0.2" {
		t.Fatalf("Label = %q", tr.Label)
	}
	tr.AddBatch(BatchDecision{Pivot: 5, First: 3, Last: 7, Pending: 2})
	tr.AddBatch(BatchDecision{Pivot: -1, First: 10, Last: 11, Pending: 2})
	if len(tr.Batches) != 2 {
		t.Fatalf("Batches = %d", len(tr.Batches))
	}
	if b := tr.Batches[0]; b.Pending != 2 || b.Pages() != 5 {
		t.Fatalf("batch 0 = %+v (pages %d)", b, b.Pages())
	}
	tr.AddPages(7)
	tr.AddPruned(3)
	tr.AddCandidates(12)
	tr.AddRefinement(4)
	tr.AddRefinement(1)
	if tr.Refinements != 2 || tr.RefinedPoints != 5 {
		t.Fatalf("refinements = %d/%d", tr.Refinements, tr.RefinedPoints)
	}
	out := tr.Format()
	if !strings.Contains(out, "pivot 5") || !strings.Contains(out, "run: pages 10..11") {
		t.Fatalf("Format batches:\n%s", out)
	}
	if !strings.Contains(out, "7 scheduled, 3 pruned") {
		t.Fatalf("Format funnel:\n%s", out)
	}
}

func TestTraceFrom(t *testing.T) {
	tr := NewQueryTrace("x")
	if TraceFrom(tr) != tr {
		t.Fatal("TraceFrom did not unwrap")
	}
	if TraceFrom(nil) != nil {
		t.Fatal("TraceFrom(nil) != nil")
	}
	// A typed-nil *QueryTrace stays usable: its methods are nil-safe.
	var nilTrace *QueryTrace
	if got := TraceFrom(nilTrace); got != nil {
		got.AddPages(1) // must not panic
	}
}

func TestRegistryCountersGauges(t *testing.T) {
	var r Registry
	c := r.Counter("queries")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("queries") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("pool.bytes")
	g.Set(100)
	g.Add(-40)
	if g.Value() != 60 {
		t.Fatalf("gauge = %d", g.Value())
	}
	s := r.Snapshot()
	if s.Counters["queries"] != 5 || s.Gauges["pool.bytes"] != 60 {
		t.Fatalf("snapshot = %+v", s)
	}
	if !strings.Contains(s.Format(), "queries") {
		t.Fatalf("Format:\n%s", s.Format())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("quantiles = %v %v %v", s.P50, s.P95, s.P99)
	}
	if diff := s.Mean - 50.5; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestHistogramWindowBounded(t *testing.T) {
	var h Histogram
	for i := 0; i < histCap; i++ {
		h.Observe(1000) // old regime, will be fully overwritten
	}
	for i := 0; i < histCap; i++ {
		h.Observe(1)
	}
	s := h.Snapshot()
	if s.Count != int64(2*histCap) {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1000 { // all-time max survives the window
		t.Fatalf("max = %v", s.Max)
	}
	if s.P99 != 1 { // quantiles reflect only the recent window
		t.Fatalf("p99 = %v, want 1", s.P99)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Gauge(fmt.Sprintf("g%d", w%2)).Add(1)
				r.Histogram("h").Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 4000 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	var r Registry
	r.Counter("a").Add(2)
	r.Histogram("lat").Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if s.Counters["a"] != 2 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("round-trip = %+v", s)
	}
}

func TestDebugServer(t *testing.T) {
	Default().Counter("debugtest.hits").Add(7)
	addr, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["debugtest.hits"] < 7 {
		t.Fatalf("metrics endpoint snapshot = %+v", s)
	}
}
