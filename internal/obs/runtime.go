package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// Runtime bridge: pull-style gauges over runtime/metrics (heap bytes,
// goroutines, GC cycles) plus a GC-pause histogram fed from the
// runtime's exact per-cycle pause log. The ROADMAP's GC-ceiling item
// needs pause attribution against the window timeline, so every
// collected pause also lands in the flight recorder (EvGCPause) where
// it interleaves with window open/fence events.

// gcPauseHist receives one observation per completed GC cycle.
var gcPauseHist = H("runtime.gc.pause.ns")

func init() {
	// runtime/metrics samples are cheap to read but allocate the sample
	// slice; GaugeFuncs only run at snapshot time, never on hot paths.
	Default.GaugeFunc("runtime.goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	Default.GaugeFunc("runtime.heap.bytes", func() float64 {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			return float64(s[0].Value.Uint64())
		}
		return 0
	})
	Default.GaugeFunc("runtime.gc.cycles", func() float64 {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			return float64(s[0].Value.Uint64())
		}
		return 0
	})
	// Cumulative heap bytes allocated: the dashboard divides interval
	// deltas by transactions to show bytes/txn live.
	Default.GaugeFunc("runtime.heap.allocs.bytes", func() float64 {
		s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			return float64(s[0].Value.Uint64())
		}
		return 0
	})
}

var gcPoll struct {
	mu        sync.Mutex
	lastNumGC uint32
}

// pollGCNow collects GC pauses completed since the last poll into the
// runtime.gc.pause.ns histogram and the flight recorder. Default's
// Snapshot calls it beside the gauge functions above, so a /metrics
// scrape or a dashboard refresh sees every pause up to that instant
// and nothing polls in between.
func pollGCNow() {
	gcPoll.mu.Lock()
	defer gcPoll.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last := gcPoll.lastNumGC
	if ms.NumGC == last {
		return
	}
	// PauseNs is a ring of the 256 most recent pauses; cycle i's pause
	// sits at (i+255)%256. If more than 256 cycles elapsed between
	// polls, the overwritten ones are simply not replayed.
	from := last
	if ms.NumGC > from+256 {
		from = ms.NumGC - 256
	}
	f := Flight()
	for i := from; i < ms.NumGC; i++ {
		p := ms.PauseNs[(i+255)%256]
		gcPauseHist.Observe(int64(p))
		f.Record(EvGCPause, 0, p, uint64(i+1), 0)
	}
	gcPoll.lastNumGC = ms.NumGC
}
