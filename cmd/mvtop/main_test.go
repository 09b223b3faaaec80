package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func snapPair() (obs.Snapshot, obs.Snapshot) {
	reg := obs.NewRegistry()
	reg.Counter("maintain.txns").Add(100)
	reg.Counter("storage.io.page_reads").Add(50)
	reg.Counter("storage.io.page_writes").Add(30)
	reg.Counter("maintain.arena.reused_bytes").Add(900)
	reg.Counter("maintain.arena.grown_bytes").Add(100)
	h := reg.Histogram("wal.fsync.ns")
	h.Observe(1000)
	prev := reg.Snapshot()

	reg.Counter("maintain.txns").Add(200)
	reg.Counter("storage.io.page_reads").Add(100)
	reg.Counter("storage.io.page_writes").Add(60)
	reg.Counter("maintain.arena.reused_bytes").Add(300)
	reg.Counter("maintain.arena.grown_bytes").Add(100)
	reg.Counter("storage.slab.slots_recycled").Add(300)
	reg.Counter("storage.slab.bytes_allocated").Add(2048)
	for i := 0; i < 98; i++ {
		h.Observe(1000)
	}
	h.Observe(5_000_000) // the window's p99 tail
	h.Observe(5_000_000)
	reg.Gauge("runtime.goroutines").Set(12)
	reg.Gauge("runtime.heap.allocs.bytes").Set(1_000_000)
	reg.Gauge("runtime.gc.cycles").Set(4)
	cur := reg.Snapshot()
	return prev, cur
}

func TestRenderFrame(t *testing.T) {
	prev, cur := snapPair()
	frame := renderFrame(prev, cur, 2*time.Second)

	for _, want := range []string{
		"txns", "100 /s", // 200 txns over 2s
		"page IO / txn", "0.80", // 160 page IO / 200 txns
		"fsync p99",
		"heap bytes / txn", "4.9 KiB", // 1e6 alloc bytes / 200 txns
		"GC cycles", "2.00 /s", // 4 cycles over 2s
		"slab slots recycled", "150 /s", // 300 over 2s
		"slab grew 2.0 KiB",
		"arena reuse", "75.0%", // 300 reused vs 100 grown
		"goroutines", "12",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// The 5ms outliers dominate the window's fsync p99 (power-of-two
	// buckets: 5e6 rounds up to <= 2^23-1 ns ≈ 8.4ms).
	if !strings.Contains(frame, "8.389ms") {
		t.Fatalf("fsync p99 not from the window delta:\n%s", frame)
	}
}

func TestRenderFrameEmptyDelta(t *testing.T) {
	prev, _ := snapPair()
	frame := renderFrame(prev, prev, time.Second)
	for _, want := range []string{"0 /s", "page IO / txn", "-"} {
		if !strings.Contains(frame, want) {
			t.Fatalf("idle frame missing %q:\n%s", want, frame)
		}
	}
}
