package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("same name must return the same handle")
	}
	g := r.Gauge("a.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	r.GaugeFunc("a.pull", func() float64 { return 7 })

	s := r.Snapshot()
	if s.Counters["a.count"] != 5 || s.Gauges["a.gauge"] != 2.5 || s.Gauges["a.pull"] != 7 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}

	// Nil handles are safe no-ops everywhere.
	var nc *Counter
	nc.Inc()
	nc.Add(3)
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	var nr *Registry
	nr.Counter("x").Inc()
	nr.Snapshot()
}

// TestHistogramBucketBoundaries pins the power-of-two bucket layout:
// bucket b holds [2^(b-1), 2^b), so upper bounds run 0, 1, 3, 7, 15...
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{16, 5},
		{1 << 20, 21},
		{1<<62 - 1, 62}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}

	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Sum != 0+1+2+3+4+7+8+100 {
		t.Fatalf("sum = %d, want 125", s.Sum)
	}
	// Cumulative counts at each power-of-two upper bound.
	want := map[uint64]int64{0: 1, 1: 2, 3: 4, 7: 6, 15: 7, 31: 7, 63: 7, 127: 8}
	for _, b := range s.Buckets {
		if w, ok := want[b.Le]; ok && b.Count != w {
			t.Errorf("bucket le=%d count = %d, want %d", b.Le, b.Count, w)
		}
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Le != 127 || last.Count != 8 {
		t.Errorf("last bucket = %+v, want le=127 count=8", last)
	}

	if q := s.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := s.Quantile(1.0); q != 127 {
		t.Errorf("p100 = %d, want 127", q)
	}
}

// TestConcurrentIncrements checks that counters and histograms lose no
// updates under contention (run with -race for the memory-model half).
func TestConcurrentIncrements(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	r := NewRegistry()
	c := r.Counter("conc.count")
	h := r.Histogram("conc.hist")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 1000))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", s.Count, workers*perWorker)
	}
	var wantSum int64
	for i := 0; i < perWorker; i++ {
		wantSum += int64(i % 1000)
	}
	if s.Sum != wantSum*workers {
		t.Fatalf("hist sum = %d, want %d", s.Sum, wantSum*workers)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(5)
	one := SnapshotJSON(r)
	two := SnapshotJSON(r)
	if string(one) != string(two) {
		t.Fatalf("snapshot JSON unstable:\n%s\nvs\n%s", one, two)
	}
	var s Snapshot
	if err := json.Unmarshal(one, &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 {
		t.Fatalf("roundtrip mismatch: %+v", s)
	}
}

// A server has no bench harness to poll for it: runtime.gc.pause.ns must
// be current in whatever Default.Snapshot returns (/metrics, mvtop).
func TestSnapshotPollsGCPauses(t *testing.T) {
	const name = "runtime.gc.pause.ns"
	before := Default.Snapshot().Histograms[name].Count
	runtime.GC()
	after := Default.Snapshot().Histograms[name].Count
	if after <= before {
		t.Fatalf("%s count %d -> %d across a forced GC; want it to rise", name, before, after)
	}
}
