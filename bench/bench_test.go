package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestWorkloadsTiny runs both passes of every workload at a tiny size and
// checks that each pass emits exactly its declared metrics with their
// units, and that nothing fails or answers wrong.
func TestWorkloadsTiny(t *testing.T) {
	work := t.TempDir()
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 1, trace: traced, setups: 1, work: work, ops: 40, n: 2000, queries: 64}
			res, err := runPass(sp, o, t.Logf)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, sp.name, traced, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", sp.name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := last.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", sp.name, traced, d.Name, m, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if !traced && last.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", sp.name, d.Name, last.Metrics[d.Name].Value)
				}
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 40 || res.values["client.error_rate"] != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d error_rate=%v",
					sp.name, traced, last.Correct, last.Attempted, last.Failed, res.values["client.error_rate"])
			}
			if traced && res.values["bench.span_violations"] != 0 {
				t.Errorf("%s: %v spans outlast their parent", sp.name, res.values["bench.span_violations"])
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares the workloads and
// metrics the harness runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nharness        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nharness        %+v", b.PerLayer, perLayer)
	}
}

// TestCrashRollsBackToLastSync checks the crash emulation: after a crash,
// the directory holds exactly what it held at the last Sync, whatever was
// created, appended, overwritten, replaced, truncated or removed since.
func TestCrashRollsBackToLastSync(t *testing.T) {
	dir := t.TempDir()
	s, err := newRecStore(dir, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	bs := s.Config().BlockSize
	block := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n*bs) }
	mustCreate := func(name string) store.BlockFile {
		f, err := s.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b, c := mustCreate("a"), mustCreate("b"), mustCreate("c")
	check := func(errs ...error) {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _, err1 := a.Append(block(1, 3))
	_, _, err2 := b.Append(block(2, 2))
	_, _, err3 := c.Append(block(3, 1))
	check(err1, err2, err3, s.Sync())
	synced := map[string][]byte{}
	for _, name := range []string{"a", "b", "c"} {
		synced[name], _ = os.ReadFile(filepath.Join(dir, name))
	}

	_, _, err1 = a.Append(block(4, 2))
	check(err1, a.WriteBlocks(1, block(5, 1)), a.Truncate(2), b.SetContents(block(6, 4)), s.Remove("c"))
	d := mustCreate("d")
	_, _, err1 = d.Append(block(7, 1))
	check(err1, s.crash())

	for name, want := range synced {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s after crash: %d bytes (err %v), want the %d synced bytes", name, len(got), err, len(want))
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "d")); !os.IsNotExist(err) {
		t.Errorf("d was created after the last Sync but survived the crash (stat err %v)", err)
	}
}
