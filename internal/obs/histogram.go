package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of power-of-two buckets: bucket b counts
// observations v with bits.Len64(v) == b, i.e. bucket 0 holds v == 0 and
// bucket b >= 1 holds the half-open range [2^(b-1), 2^b). Every
// non-negative int64 lands in exactly one bucket.
const histBuckets = 64

// Histogram is a race-safe histogram with power-of-two bucket
// boundaries (0, 1, 2, 4, 8, ... 2^62): one atomic counter per bucket
// plus an atomic sum. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// bucketOf returns the power-of-two bucket index of v (v < 0 clamps
// to 0).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for b := range h.counts {
		n += h.counts[b].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket is one histogram bucket in a snapshot: Count observations were
// <= Le (upper bounds are cumulative, Prometheus-style).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is a merged, cumulative view of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Buckets lists cumulative counts at each power-of-two upper bound,
	// trimmed to the occupied range.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot reads the buckets into one cumulative bucket list.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	if h == nil {
		return out
	}
	out.Sum = h.sum.Load()
	var merged [histBuckets]int64
	for b := range h.counts {
		merged[b] = h.counts[b].Load()
	}
	last := -1
	for b, n := range merged {
		if n != 0 {
			last = b
		}
	}
	var cum int64
	for b := 0; b <= last; b++ {
		cum += merged[b]
		// Upper bound of bucket b: largest v with bits.Len64(v) == b,
		// i.e. 2^b - 1 (bucket 0 holds only 0).
		le := uint64(0)
		if b > 0 {
			le = 1<<uint(b) - 1
		}
		out.Buckets = append(out.Buckets, Bucket{Le: le, Count: cum})
	}
	out.Count = cum
	return out
}

// Sub returns the observations recorded between o — an earlier snapshot
// of the same histogram — and s: bucket counts and sums subtract
// pairwise, and trailing empty buckets are trimmed. Benchmarks use this
// to isolate one measurement window from a process-lifetime histogram.
func (s HistogramSnapshot) Sub(o HistogramSnapshot) HistogramSnapshot {
	var cur, old [histBuckets]int64
	fill := func(dst *[histBuckets]int64, snap HistogramSnapshot) {
		prev := int64(0)
		for _, bk := range snap.Buckets {
			// Invert the Le encoding: bucket 0 has Le 0, bucket b has
			// Le 2^b - 1, so bits.Len64(Le) recovers the index.
			dst[bits.Len64(bk.Le)] = bk.Count - prev
			prev = bk.Count
		}
	}
	fill(&cur, s)
	fill(&old, o)
	out := HistogramSnapshot{Sum: s.Sum - o.Sum}
	last := -1
	for b := range cur {
		cur[b] -= old[b]
		if cur[b] != 0 {
			last = b
		}
	}
	var cum int64
	for b := 0; b <= last; b++ {
		cum += cur[b]
		le := uint64(0)
		if b > 0 {
			le = 1<<uint(b) - 1
		}
		out.Buckets = append(out.Buckets, Bucket{Le: le, Count: cum})
	}
	out.Count = cum
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the snapshot's
// buckets: the upper bound of the first bucket whose cumulative count
// reaches q of the total. Coarse (power-of-two resolution) but stable.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	for _, b := range s.Buckets {
		if b.Count >= target {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}
