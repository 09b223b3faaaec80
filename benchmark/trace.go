package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Layers the ledger attributes time to. All but the first two are
// packages of this repository; a span is charged to the package whose
// public function the benchmark called.
const (
	layerBench     = "bench" // generator, loop, result checks: the benchmark itself
	layerHTTP      = "http"  // Go's net/http client and server plus loopback TCP
	layerSQLParser = "sqlparser"
	layerDelta     = "delta"
	layerMaintain  = "maintain" // folds exec, expr, bytemap, value, storage apply and ic
	layerWAL       = "wal"
	layerServer    = "server"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Op     int    `json:"op"` // window or request number the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the benchmark's own spans in memory. Every workload
// is a closed loop with one operation in flight, so the spans of one
// operation nest strictly even when they start on different goroutines
// (the HTTP handler runs while the client blocks); one stack of open
// spans under a mutex is therefore enough to find each span's parent.
// A nil tracer records nothing, which is how untraced runs pay nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int // indexes into spans
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp starts a new operation: spans opened from here on carry its
// number.
func (t *tracer) nextOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// start opens a span under the innermost open one and returns its
// handle for end.
func (t *tracer) start(layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Op: t.op,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans)
}

// end closes the span start returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if n := len(t.open); n > 0 && t.open[n-1] == id-1 {
		t.open = t.open[:n-1]
	}
}

// mark returns the number of spans recorded so far, so a caller can
// later take the ledger of one section with since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once). Indexed like spans.
func selfTimes(spans []span) []int64 {
	children := map[int][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// ledgerRow is one line of the self-time table.
type ledgerRow struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Calls  int    `json:"calls"`
	SelfNs int64  `json:"self_ns"`
}

// ledger sums self time per (layer, span name), largest first, and
// returns the total: when every moment of a section lies inside some
// root span, that total equals the section's wall clock.
func ledger(spans []span) (rows []ledgerRow, totalNs int64) {
	self := selfTimes(spans)
	byKey := map[[2]string]*ledgerRow{}
	for i, s := range spans {
		k := [2]string{s.Layer, s.Name}
		r := byKey[k]
		if r == nil {
			r = &ledgerRow{Layer: s.Layer, Name: s.Name}
			byKey[k] = r
		}
		r.Calls++
		r.SelfNs += self[i]
		totalNs += self[i]
	}
	for _, r := range byKey {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNs != rows[j].SelfNs {
			return rows[i].SelfNs > rows[j].SelfNs
		}
		return rows[i].Layer+rows[i].Name < rows[j].Layer+rows[j].Name
	})
	return rows, totalNs
}

// layerSelf sums a ledger by layer.
func layerSelf(rows []ledgerRow) map[string]int64 {
	out := map[string]int64{}
	for _, r := range rows {
		out[r.Layer] += r.SelfNs
	}
	return out
}

func printLedger(w io.Writer, workload string, rows []ledgerRow, wallSeconds float64) {
	var totalNs int64
	for _, r := range rows {
		totalNs += r.SelfNs
	}
	fmt.Fprintf(w, "self-time ledger, %s (traced run): spans sum to %.3f s of %.3f s wall clock\n",
		workload, float64(totalNs)/1e9, wallSeconds)
	fmt.Fprintf(w, "  %-10s %-26s %9s %12s %7s\n", "layer", "span", "calls", "self ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-26s %9d %12.2f %6.1f%%\n", r.Layer, r.Name, r.Calls,
			float64(r.SelfNs)/1e6, 100*float64(r.SelfNs)/float64(totalNs))
	}
}
