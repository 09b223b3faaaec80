package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0.5, 30}, {0.95, 50}, {0.2, 10}, {0.21, 20}, {1, 50}, {0.0001, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input should read 0")
	}
	// p95 of 1..100 leaves five samples beyond it.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}

// The expected figures are statistics.quantiles(v, n=4) in Python.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	// quantiles -> [11.75, 14.5, 17.25]
	if got, want := quartileSpread(v), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("constant samples spread %v", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("single sample spread %v", got)
	}
}

func TestRateSlicesMedianIgnoresOneStall(t *testing.T) {
	t0 := time.Unix(0, 0)
	r := newRateSlices(t0)
	now := t0
	// Nine slices at 1000 txn/s and one stalled to a tenth of that.
	for i := 0; i < 10; i++ {
		step := 500 * time.Millisecond
		if i == 4 {
			step = 5 * time.Second
		}
		now = now.Add(step)
		r.add(now, 500)
	}
	if got := r.median(now); got != 1000 {
		t.Errorf("median rate = %v, want 1000", got)
	}
	if len(r.rates) != 10 {
		t.Errorf("%d slices, want 10", len(r.rates))
	}
	short := newRateSlices(t0)
	short.add(t0.Add(100*time.Millisecond), 50)
	if got := short.median(t0.Add(100 * time.Millisecond)); got != 500 {
		t.Errorf("run shorter than a slice reads %v, want its overall rate 500", got)
	}
}
