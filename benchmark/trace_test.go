package main

import (
	"sync"
	"testing"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "a", Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "b", Name: "kid", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "b", Name: "kid", Start: 30, End: 60},   // overlaps span 2
		{ID: 4, Parent: 1, Layer: "c", Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Layer: "c", Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, self[i], want[i])
		}
	}
}

func TestLedgerOfNestedSpansSumsToTheRoots(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 3; op++ {
		tr.nextOp()
		root := tr.start(layerBench, "operation")
		a := tr.start(layerMaintain, "ApplyBatch")
		b := tr.start(layerWAL, "commit fence wait")
		tr.end(b)
		tr.end(a)
		tr.end(root)
	}
	spans := tr.since(0)
	if len(spans) != 9 {
		t.Fatalf("%d spans, want 9", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID || spans[3].Parent != 0 {
		t.Errorf("parents wrong: %+v", spans[:4])
	}
	if spans[0].Op != 1 || spans[8].Op != 3 {
		t.Errorf("operation numbers wrong: %d %d", spans[0].Op, spans[8].Op)
	}
	rows, total := ledger(spans)
	var roots int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
	}
	if total != roots {
		t.Errorf("ledger total %d, root spans cover %d", total, roots)
	}
	byLayer := layerSelf(rows)
	if byLayer[layerBench]+byLayer[layerMaintain]+byLayer[layerWAL] != total {
		t.Errorf("layers %v do not add up to %d", byLayer, total)
	}
	for _, r := range rows {
		if r.Calls != 3 {
			t.Errorf("%s/%s: %d calls, want 3", r.Layer, r.Name, r.Calls)
		}
	}
}

// The handler goroutine opens spans while the client goroutine holds
// its request span open; the parent must still be found.
func TestTracerNestsAcrossGoroutines(t *testing.T) {
	tr := newTracer()
	client := tr.start(layerHTTP, "POST /txn")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tr.start(layerServer, "handle")
		tr.end(h)
	}()
	wg.Wait()
	tr.end(client)
	spans := tr.since(0)
	if spans[1].Parent != spans[0].ID {
		t.Errorf("handler span has parent %d, want %d", spans[1].Parent, spans[0].ID)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.nextOp()
	tr.end(tr.start(layerBench, "x"))
	if tr.mark() != 0 || tr.since(0) != nil {
		t.Error("nil tracer recorded something")
	}
}
