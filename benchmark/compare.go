package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
)

// spec is BENCHMARK.json: the one table every comparison is driven by.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the baseline by which it may worsen
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// program was started there or in its own directory.
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// host records where a results file was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultsFile is what -out writes and -compare reads: every run of
// every set, with the settings that make two files comparable.
type resultsFile struct {
	Host    host        `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Ops     int         `json:"ops"`
	Quick   bool        `json:"quick"`
	Sets    [][]*result `json:"sets"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Quick {
		return nil, fmt.Errorf("%s holds -quick results, which are for smoke use and not comparable", path)
	}
	return &f, nil
}

// values collects one metric of one workload across sets, untraced
// runs for end-to-end metrics and traced runs for per-layer ones.
func values(sets [][]*result, workload, metric string) []float64 {
	var out []float64
	for _, set := range sets {
		for _, r := range set {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// worsening is how far b is worse than a, as a share of a; negative
// when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compare prints, per workload and end-to-end metric, both medians,
// the spread of the baseline's own runs and the metric's bound, and
// reports whether every pairing holds: b's median no worse than a's by
// more than the bound, no failed operations, and — when both sides
// timed the same fixed number of operations of the same seed, so that
// counts repeat exactly — identical page I/O counts.
func compare(w io.Writer, s *spec, a, b [][]*result, exactCounts bool) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread A", "bound", "verdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-24s missing\n", wl.Name, m.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse, spread := worsening(m.Better, ma, mb), quartileSpread(va)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, ok = "REGRESSION", false
			case spread > m.Bound:
				verdict = "unresolved (spread exceeds bound)"
			}
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
		if exactCounts {
			for _, m := range slices.Concat(s.PerLayer, s.EndToEnd) {
				if m.Unit != "io/txn" && m.Unit != "B/txn" {
					continue
				}
				if va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name); !sameValues(va, vb) {
					fmt.Fprintf(w, "%-18s %-24s count differs: %v vs %v\n", wl.Name, m.Name, va, vb)
					ok = false
				}
			}
		}
	}
	for _, sets := range [][][]*result{a, b} {
		for _, set := range sets {
			for _, r := range set {
				if r.Failed > 0 {
					fmt.Fprintf(w, "%s (seed %d): %d of %d operations failed: %v\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.Failures)
					ok = false
				}
			}
		}
	}
	return ok
}

// sameValues reports whether every value on both sides is one and the
// same number.
func sameValues(a, b []float64) bool {
	all := append(append([]float64(nil), a...), b...)
	for _, v := range all {
		if v != all[0] {
			return false
		}
	}
	return len(a) > 0 && len(b) > 0
}
