package obs

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// lintPrometheus is a tiny parser for the Prometheus text format: every
// non-comment line must be `name[{le="..."}] value`, every series must
// follow a # TYPE for its family, histogram buckets must be cumulative
// and end with +Inf equal to _count. It returns the number of samples.
// CI's exposition smoke leg runs it over a live scrape via
// TestPromLintFile.
func lintPrometheus(text string) (int, error) {
	typed := map[string]string{}
	samples := 0
	type histState struct {
		prev    int64
		inf     int64
		hasInf  bool
		count   int64
		hasCnt  bool
		started bool
	}
	hists := map[string]*histState{}
	validName := func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(c >= '0' && c <= '9' && i > 0)
			if !ok {
				return false
			}
		}
		return true
	}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) >= 4 && parts[1] == "TYPE" {
				if !validName(parts[2]) {
					return 0, fmt.Errorf("line %d: bad metric name %q", ln+1, parts[2])
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return 0, fmt.Errorf("line %d: no value separator: %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			return 0, fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name, label := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				return 0, fmt.Errorf("line %d: unterminated labels: %q", ln+1, series)
			}
			name, label = series[:i], series[i+1:len(series)-1]
		}
		if !validName(name) {
			return 0, fmt.Errorf("line %d: bad series name %q", ln+1, name)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return 0, fmt.Errorf("line %d: series %q has no # TYPE", ln+1, name)
		}
		if typed[family] == "histogram" {
			h := hists[family]
			if h == nil {
				h = &histState{}
				hists[family] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !strings.HasPrefix(label, `le="`) || !strings.HasSuffix(label, `"`) {
					return 0, fmt.Errorf("line %d: bucket without le label: %q", ln+1, line)
				}
				v, err := strconv.ParseInt(valStr, 10, 64)
				if err != nil {
					return 0, fmt.Errorf("line %d: non-integer bucket count: %v", ln+1, err)
				}
				if label == `le="+Inf"` {
					h.inf, h.hasInf = v, true
				} else {
					if h.started && v < h.prev {
						return 0, fmt.Errorf("line %d: non-cumulative buckets in %s", ln+1, family)
					}
					h.prev, h.started = v, true
				}
			case strings.HasSuffix(name, "_count"):
				v, _ := strconv.ParseInt(valStr, 10, 64)
				h.count, h.hasCnt = v, true
			}
		}
		samples++
	}
	for fam, h := range hists {
		if !h.hasInf {
			return 0, fmt.Errorf("histogram %s missing +Inf bucket", fam)
		}
		if h.hasCnt && h.inf != h.count {
			return 0, fmt.Errorf("histogram %s: +Inf bucket %d != count %d", fam, h.inf, h.count)
		}
		if h.started && h.prev > h.inf {
			return 0, fmt.Errorf("histogram %s: finite bucket above +Inf", fam)
		}
	}
	return samples, nil
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("maintain.txn_type.>T.count").Add(7)
	r.Counter("wal.fsync.count").Add(3)
	r.Gauge("wal.commit.overlap").Set(1.25)
	r.GaugeFunc("runtime.test.pull", func() float64 { return 42 })
	h := r.Histogram("wal.fsync.ns")
	for _, v := range []int64{0, 1, 3, 900, 70000} {
		h.Observe(v)
	}
	// The durable write's other device trip, the record's write.
	w := r.Histogram("wal.write.ns")
	for _, v := range []int64{40000, 41000} {
		w.Observe(v)
	}
	text := string(PrometheusText(r))

	for _, want := range []string{
		"# TYPE maintain_txn_type__T_count counter",
		"maintain_txn_type__T_count 7",
		"wal_commit_overlap 1.25",
		"runtime_test_pull 42",
		"# TYPE wal_fsync_ns histogram",
		`wal_fsync_ns_bucket{le="+Inf"} 5`,
		"wal_fsync_ns_count 5",
		"# TYPE wal_write_ns histogram",
		`wal_write_ns_bucket{le="+Inf"} 2`,
		"wal_write_ns_sum 81000",
		"wal_write_ns_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	n, err := lintPrometheus(text)
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, text)
	}
	if n < 12 {
		t.Fatalf("lint saw only %d samples:\n%s", n, text)
	}

	// Rendering is deterministic.
	if again := string(PrometheusText(r)); again != text {
		t.Fatal("exposition not deterministic")
	}
}

func TestPromLintRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_type_line 1",
		"# TYPE x counter\nx notanumber",
		"# TYPE 9bad counter\n9bad 1",
		"# TYPE h histogram\nh_bucket{le=\"3\"} 5\nh_bucket{le=\"7\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5",
	} {
		if _, err := lintPrometheus(bad); err == nil {
			t.Fatalf("lint accepted %q", bad)
		}
	}
}

// TestPromLintFile lints an externally captured exposition (the CI smoke
// leg curls /metrics in Prometheus format and points PROM_LINT_FILE at
// the result). Skips when the env var is unset.
func TestPromLintFile(t *testing.T) {
	path := os.Getenv("PROM_LINT_FILE")
	if path == "" {
		t.Skip("PROM_LINT_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := lintPrometheus(string(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if n == 0 {
		t.Fatalf("%s: no samples", path)
	}
	t.Logf("%s: %d samples ok", path, n)
}
