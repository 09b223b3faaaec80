package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples: the smallest value with at least p of the samples at or
// below it. It sorts a copy; an empty input yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the steadiness measure BENCHMARK.json's
// bounds are judged against. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the driver computes. Fewer than two samples have no spread.
func quartileSpread(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	mid := q(2)
	if mid == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(mid)
}

// rateSlices turns a run into throughput samples: the timed section is
// cut into slices of at least sliceLen, each yielding committed
// transactions per second, and the run reports the median slice. One
// slice stalled by a neighbour on the shared host (or by the half-way
// checkpoint) then moves the figure by at most one rank.
type rateSlices struct {
	sliceLen time.Duration
	start    time.Time
	txns     int
	rates    []float64
}

func newRateSlices(start time.Time) *rateSlices {
	return &rateSlices{sliceLen: 500 * time.Millisecond, start: start}
}

// add credits committed transactions finishing at now.
func (r *rateSlices) add(now time.Time, txns int) {
	r.txns += txns
	if d := now.Sub(r.start); d >= r.sliceLen {
		r.rates = append(r.rates, float64(r.txns)/d.Seconds())
		r.start, r.txns = now, 0
	}
}

// median returns the median slice rate; a run shorter than one slice
// falls back to its overall rate.
func (r *rateSlices) median(now time.Time) float64 {
	if len(r.rates) == 0 {
		if d := now.Sub(r.start).Seconds(); d > 0 {
			return float64(r.txns) / d
		}
		return 0
	}
	return median(r.rates)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
