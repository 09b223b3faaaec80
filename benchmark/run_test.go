package main

import (
	"strings"
	"testing"
)

// countMetrics are the ones that must repeat exactly when two runs
// time the same operations of the same seed.
func countMetrics(r *result) map[string]float64 {
	out := map[string]float64{"attempted": float64(r.Attempted), "transactions": float64(r.Transactions)}
	for name, m := range r.Metrics {
		if m.Unit == "io/txn" || m.Unit == "B/txn" || m.Unit == "count" && name != "server.queue_depth_max" ||
			name == "delta.annihilated_share" {
			out[name] = m.Value
		}
	}
	return out
}

// Every workload, untraced and traced, on a fixed number of
// operations: the run is correct, reports exactly the metrics
// BENCHMARK.json promises, repeats its counts for the same seed and
// changes them for another.
func TestWorkloadsRepeatTheirCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives all four systems")
	}
	ops := map[string]int{"fig5-batch64": 12, "fig5-batch64-wal": 12, "corp-sql-txn1": 400, "corp-serve-tcp": 40}
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			run := func(seed int64) *result {
				t.Helper()
				cfg := config{seed: seed, ops: ops[def.name], trace: traced, quick: true, dir: t.TempDir()}
				r, err := measure(def, cfg)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", def.name, traced, err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("%s traced=%v: %d failed: %v", def.name, traced, r.Failed, r.Failures)
				}
				if r.Operations != ops[def.name] {
					t.Fatalf("%s: timed %d operations, want %d", def.name, r.Operations, ops[def.name])
				}
				return r
			}
			a, b, c := run(1), run(1), run(2)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(a.Metrics) != len(want) {
				t.Errorf("%s traced=%v reports %d metrics, want %d", def.name, traced, len(a.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := a.Metrics[m.name]; !ok {
					t.Errorf("%s traced=%v does not report %s", def.name, traced, m.name)
				}
			}
			ca, cb, cc := countMetrics(a), countMetrics(b), countMetrics(c)
			differs := false
			for name, v := range ca {
				if cb[name] != v {
					t.Errorf("%s traced=%v: %s is %v, then %v with the same seed", def.name, traced, name, v, cb[name])
				}
				if cc[name] != v {
					differs = true
				}
			}
			if !differs {
				t.Errorf("%s traced=%v: another seed moved no count", def.name, traced)
			}
			if !traced {
				for _, m := range endToEnd {
					if a.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never 0", def.name, m.name, a.Metrics[m.name].Value)
					}
				}
				continue
			}
			// The prediction column of README.md, on the layers a
			// workload bypasses.
			zero := func(prefix string, want bool) {
				for name, m := range a.Metrics {
					if strings.HasPrefix(name, prefix) && (m.Value == 0) != want {
						t.Errorf("%s: %s = %v", def.name, name, m.Value)
					}
				}
			}
			fig5 := strings.HasPrefix(def.name, "fig5")
			zero("sqlparser.", fig5)
			zero("delta.", !fig5)
			zero("wal.commit_wait", def.name == "fig5-batch64" || def.name == "corp-sql-txn1")
			zero("wal.bytes", def.name == "fig5-batch64" || def.name == "corp-sql-txn1")
			zero("server.post", def.name != "corp-serve-tcp")
			zero("server.hook", def.name != "corp-serve-tcp")
			if c := a.Metrics["trace.ledger_coverage"].Value; c < 0.9 || c > 1.1 {
				t.Errorf("%s: the span ledger covers %.3f of the wall clock", def.name, c)
			}
		}
	}
}
