// Command mvtop is a live terminal dashboard for a running mvbench
// -http process: it polls /metrics (JSON form), diffs consecutive
// snapshots, and renders per-interval rates — txns/sec, page IO per
// txn, heap bytes per txn, GC cycles/sec, fsync and GC pause p99,
// slab slot recycling, arena reuse. Stdlib only; point
// it at any process serving the obs handler.
//
// Usage:
//
//	mvtop -addr localhost:8080            # live, repaints every interval
//	mvtop -addr localhost:8080 -once      # one frame, plain text, exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "host:port (or full URL) of a process serving /metrics")
	interval := flag.Duration("interval", 1*time.Second, "poll interval")
	once := flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
	flag.Parse()
	log.SetFlags(0)

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics?format=json"

	prev, err := fetchSnapshot(url)
	if err != nil {
		log.Fatalf("mvtop: %v", err)
	}
	prevAt := time.Now()
	for {
		time.Sleep(*interval)
		cur, err := fetchSnapshot(url)
		now := time.Now()
		if err != nil {
			log.Fatalf("mvtop: %v", err)
		}
		frame := renderFrame(prev, cur, now.Sub(prevAt))
		if *once {
			fmt.Print(frame)
			return
		}
		// Home + clear-to-end repaints in place without flicker.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		prev, prevAt = cur, now
	}
}

func fetchSnapshot(url string) (obs.Snapshot, error) {
	var s obs.Snapshot
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decode %s: %w", url, err)
	}
	return s, nil
}

// renderFrame formats one dashboard frame from two snapshots dt apart.
// Pure so the frame logic is unit-testable without a server.
func renderFrame(prev, cur obs.Snapshot, dt time.Duration) string {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	dc := func(name string) int64 { return cur.Counters[name] - prev.Counters[name] }
	dh := func(name string) obs.HistogramSnapshot {
		return cur.Histograms[name].Sub(prev.Histograms[name])
	}

	txns := dc("maintain.txns")
	pageIO := dc("storage.io.page_reads") + dc("storage.io.page_writes") +
		dc("storage.io.index_reads") + dc("storage.io.index_writes")
	fsync := dh("wal.fsync.ns")
	gc := dh("runtime.gc.pause.ns")

	var b strings.Builder
	fmt.Fprintf(&b, "mvtop  interval %s\n\n", dt.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-22s %12.0f /s\n", "txns", float64(txns)/secs)
	fmt.Fprintf(&b, "%-22s %12s\n", "page IO / txn", perTxn(pageIO, txns))
	fmt.Fprintf(&b, "%-22s %12s   (n=%d)\n", "fsync p99",
		nsStr(fsync.Quantile(0.99)), fsync.Count)
	fmt.Fprintf(&b, "%-22s %12s   (cycles=%d)\n", "GC pause p99",
		nsStr(gc.Quantile(0.99)), gc.Count)
	// The GC-ceiling panels (DESIGN.md §14): live bytes/txn and GC
	// cycles/sec, and the slab line shows recycling absorbing the
	// rewrite churn that would otherwise grow them.
	dg := func(name string) float64 { return cur.Gauges[name] - prev.Gauges[name] }
	if alloc := dg("runtime.heap.allocs.bytes"); txns > 0 {
		fmt.Fprintf(&b, "%-22s %12s\n", "heap bytes / txn", byteStr(uint64(alloc/float64(txns))))
	} else {
		fmt.Fprintf(&b, "%-22s %12s\n", "heap bytes / txn", "-")
	}
	fmt.Fprintf(&b, "%-22s %12.2f /s\n", "GC cycles", dg("runtime.gc.cycles")/secs)
	if recycled, grownB := dc("storage.slab.slots_recycled"), dc("storage.slab.bytes_allocated"); recycled > 0 || grownB > 0 {
		fmt.Fprintf(&b, "%-22s %12.0f /s   (slab grew %s)\n", "slab slots recycled",
			float64(recycled)/secs, byteStr(uint64(grownB)))
	}
	fmt.Fprintf(&b, "%-22s %12s\n", "arena reuse", arenaReuse(prev, cur))
	if g, ok := cur.Gauges["runtime.goroutines"]; ok {
		fmt.Fprintf(&b, "%-22s %12.0f\n", "goroutines", g)
	}
	if g, ok := cur.Gauges["runtime.heap.bytes"]; ok {
		fmt.Fprintf(&b, "%-22s %12s\n", "heap", byteStr(uint64(g)))
	}
	return b.String()
}

func perTxn(n, txns int64) string {
	if txns == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(n)/float64(txns))
}

func nsStr(ns uint64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

func byteStr(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for u := n / unit; u >= unit; u /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// arenaReuse reports what fraction of arena bytes this interval were
// served from reuse rather than fresh growth.
func arenaReuse(prev, cur obs.Snapshot) string {
	reused := cur.Counters["maintain.arena.reused_bytes"] - prev.Counters["maintain.arena.reused_bytes"]
	grown := cur.Counters["maintain.arena.grown_bytes"] - prev.Counters["maintain.arena.grown_bytes"]
	if reused+grown == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(reused)/float64(reused+grown))
}
