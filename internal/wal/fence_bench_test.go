package wal_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/wal"
)

// spinIters sizes the CPU loop that stands in for a window's
// propagation and apply: ~80 µs on a 2-CPU Xeon, about one
// fig5-batch64 window.
const spinIters = 38000

var spinSink uint64

// spin runs a fixed xorshift loop, the same work on every run.
func spin() {
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
}

// fig5Window64 coalesces one Figure-5-shaped window of 64 transactions:
// a price change on each of 51 distinct items and 13 new sales, so
// nothing annihilates.
func fig5Window64(db *corpus.Database) delta.Coalesced {
	tSchema, sSchema := db.Catalog.MustGet("T").Schema, db.Catalog.MustGet("S").Schema
	txns := make([]map[string]*delta.Delta, 64)
	for i := range txns {
		if i%5 == 4 {
			d := delta.New(sSchema)
			d.Insert(value.Tuple{value.NewString(fmt.Sprintf("sx%06d", i)),
				value.NewString(fmt.Sprintf("item%03d", i)), value.NewInt(int64(1 + i%5))}, 1)
			txns[i] = map[string]*delta.Delta{"S": d}
			continue
		}
		d := delta.New(tSchema)
		item := value.NewString(fmt.Sprintf("item%03d", i))
		d.Modify(value.Tuple{item, value.NewInt(10)}, value.Tuple{item, value.NewInt(11)}, 1)
		txns[i] = map[string]*delta.Delta{"T": d}
	}
	var co delta.Coalescer
	return co.Coalesce(txns)
}

// BenchmarkCommitFence times the durable commit of one window on the
// real filesystem, as ApplyBatch drives it: BeginWindow, a fixed CPU
// loop in place of the window's propagation and apply, then the fence.
// One op is one window. It reports ns/window, fence-wait-ns (what the
// window could not hide of its commit), B/window of log record,
// by-fence (the share of records the fence took back and wrote), and
// the mean of each device trip of the durable write: write-ns (the
// record's write) and fsync-ns (the flush after it).
func BenchmarkCommitFence(b *testing.B) {
	cfg := corpus.Figure5Config{Items: 64, RPerItem: 2, SPerItem: 2}
	db, _, m := buildFig5(b, cfg, nil)
	w := fig5Window64(db)
	mgr, err := wal.Attach(m, db.Catalog, wal.OSFS{}, b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	bytes := obs.C("wal.bytes")
	bytes0, fenced0 := bytes.Value(), byFence.Value()
	writes, fsyncs := obs.H("wal.write.ns"), obs.H("wal.fsync.ns")
	writes0, fsyncs0 := writes.Snapshot(), fsyncs.Snapshot()
	var waited time.Duration
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		wait := mgr.BeginWindow(w, 64)
		spin()
		tw := time.Now()
		if _, err := wait(); err != nil {
			b.Fatal(err)
		}
		waited += time.Since(tw)
	}
	elapsed := time.Since(t0)
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/window")
	b.ReportMetric(float64(waited.Nanoseconds())/n, "fence-wait-ns")
	b.ReportMetric(float64(bytes.Value()-bytes0)/n, "B/window")
	b.ReportMetric(float64(byFence.Value()-fenced0)/n, "by-fence")
	b.ReportMetric(meanNs(writes.Snapshot().Sub(writes0)), "write-ns")
	b.ReportMetric(meanNs(fsyncs.Snapshot().Sub(fsyncs0)), "fsync-ns")
}

func meanNs(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
