package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchmarkJSONAgreesWithTheProgram(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads listed, %d defined", len(s.Workloads), len(workloadDefs))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q, the program defines %q", i, w.Name, workloadDefs[i].name)
		}
	}
	check := func(kind string, listed []boundedMetric, defined []metricDef) {
		if len(listed) != len(defined) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defined))
		}
		for i, m := range listed {
			if m.Name != defined[i].name || m.Unit != defined[i].unit {
				t.Errorf("%s metric %d is %s [%s], the program defines %s [%s]",
					kind, i, m.Name, m.Unit, defined[i].name, defined[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func runOf(workload string, traced bool, metrics map[string]float64) *result {
	r := &result{Workload: workload, Traced: traced, Correct: true, Attempted: 1, Metrics: map[string]sample{}}
	for name, v := range metrics {
		r.Metrics[name] = sample{Value: v, Unit: unitOf(name)}
	}
	return r
}

func setOf(s *spec, e2e map[string]float64, ioPerTxn float64) []*result {
	counts := map[string]float64{}
	for _, m := range perLayer {
		if m.unit == "io/txn" || m.unit == "B/txn" {
			counts[m.name] = ioPerTxn
		}
	}
	var set []*result
	for _, w := range s.Workloads {
		set = append(set, runOf(w.Name, false, e2e), runOf(w.Name, true, counts))
	}
	return set
}

func TestCompareRule(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]float64{"setup_s": 0.2, "txns_per_s": 1000, "page_io_per_txn": 10,
		"live_heap_mb": 50, "commit_visible_p50_ms": 1, "commit_visible_p95_ms": 2}
	with := func(name string, v float64) map[string]float64 {
		m := map[string]float64{}
		for k, b := range base {
			m[k] = b
		}
		m[name] = v
		return m
	}
	bound := map[string]float64{}
	for _, m := range s.EndToEnd {
		bound[m.Name] = m.Bound
	}
	tput, p50 := bound["txns_per_s"], bound["commit_visible_p50_ms"]
	a := [][]*result{setOf(s, base, 2.5)}
	for _, c := range []struct {
		why  string
		b    []*result
		ok   bool
		want string
	}{
		{"same numbers", setOf(s, base, 2.5), true, ""},
		{"throughput down by half its bound", setOf(s, with("txns_per_s", 1000*(1-tput/2)), 2.5), true, ""},
		{"throughput down by twice its bound", setOf(s, with("txns_per_s", 1000*(1-2*tput)), 2.5), false, "REGRESSION"},
		{"throughput up is never a regression", setOf(s, with("txns_per_s", 5000), 2.5), true, ""},
		{"latency up by twice its bound", setOf(s, with("commit_visible_p50_ms", 1+2*p50), 2.5), false, "REGRESSION"},
		{"latency down", setOf(s, with("commit_visible_p50_ms", 0.1), 2.5), true, ""},
		{"a count moved", setOf(s, base, 2.6), false, "count differs"},
	} {
		var out bytes.Buffer
		if got := compare(&out, s, a, [][]*result{c.b}, true); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.why, got, c.ok, out.String())
		}
		if c.want != "" && !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.why, c.want, out.String())
		}
	}
	// Counts are only held to equality when both sides timed the same
	// fixed operations.
	var out bytes.Buffer
	if !compare(&out, s, a, [][]*result{setOf(s, base, 2.6)}, false) {
		t.Errorf("timed runs held to exact counts\n%s", out.String())
	}
	failed := setOf(s, base, 2.5)
	failed[0].Failed, failed[0].Correct = 1, false
	if compare(&out, s, a, [][]*result{failed}, false) {
		t.Error("a failed operation passed the comparison")
	}
}

func TestCompareRefusesQuickResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := os.WriteFile(path, []byte(`{"quick": true, "sets": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResults(path); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("quick results accepted: %v", err)
	}
}
