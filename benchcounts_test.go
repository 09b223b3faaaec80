package mvmaint_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/bench_counts_seed5.json from the results in BENCH_COUNTS_DIR")

// countsGolden holds the counted lines of the benchmark's traced runs
// under -ops 300 -seed 5, per workload: every io/txn and B/txn metric,
// ic.rolled_back and maintain.view_rows_held. They repeat byte for byte
// from run to run, so a change that moves one changed what the engine
// does, not how fast it does it.
const countsGolden = "testdata/bench_counts_seed5.json"

// counted reports whether a benchmark metric is a count the golden file
// holds.
func counted(name, unit string) bool {
	return unit == "io/txn" || unit == "B/txn" || name == "ic.rolled_back" || name == "maintain.view_rows_held"
}

// TestBenchCounts compares the counted lines of benchmark results to
// the golden file. CI's "Counted lines" step writes one result per
// workload of the golden file, all four of BENCHMARK.json's, and points
// BENCH_COUNTS_DIR at them:
//
//	for w in fig5-batch64 fig5-batch64-wal corp-sql-txn1 corp-serve-tcp; do
//	  bash benchmark/run.sh -workload $w -ops 300 -seed 5 -trace 1 | tail -1 > /tmp/counts/$w.json
//	done
//	BENCH_COUNTS_DIR=/tmp/counts go test -run TestBenchCounts .
//
// -update-counts rewrites the golden file from every result in the
// directory: only for a change meant to move a count (or add a
// workload), said so where it is reviewed.
func TestBenchCounts(t *testing.T) {
	dir := os.Getenv("BENCH_COUNTS_DIR")
	if dir == "" {
		t.Skip("BENCH_COUNTS_DIR not set")
	}
	var golden map[string]map[string]float64
	raw, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]float64{}
	var workloads []string
	if *updateCounts {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			workloads = append(workloads, strings.TrimSuffix(filepath.Base(f), ".json"))
		}
	} else {
		for w := range golden {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		raw, err := os.ReadFile(filepath.Join(dir, w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v, %d failed operations", w, res.Correct, res.Failed)
		}
		got[w] = map[string]float64{}
		for name, m := range res.Metrics {
			if counted(name, m.Unit) {
				got[w][name] = m.Value
			}
		}
	}
	if *updateCounts {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		for name, want := range golden[w] {
			if v, ok := got[w][name]; !ok || v != want {
				t.Errorf("%s: %s = %v, want %v", w, name, v, want)
			}
		}
		for name := range got[w] {
			if _, ok := golden[w][name]; !ok {
				t.Errorf("%s: counted line %s is not in %s", w, name, countsGolden)
			}
		}
	}
}
