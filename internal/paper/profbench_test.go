package paper_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/paper"
)

func newThroughput(tb testing.TB) *paper.Throughput {
	tb.Helper()
	th, err := paper.NewThroughput(corpus.DefaultFigure5Config())
	if err != nil {
		tb.Fatal(err)
	}
	return th
}

// TestBatchingAmortizesPageIO is the batching claim as a count, exact on
// every host: one 256-transaction hot-item stream charges 104.70, 64.53
// and 17.46 page I/Os per transaction in windows of 1, 16 and 64. The
// fixture materializes every node, so since the factorized push it also
// maintains the five partial and join nodes that push adds (before it:
// 23 425, 14 574 and 3 927, that is 91.50, 56.93 and 15.34).
func TestBatchingAmortizesPageIO(t *testing.T) {
	const n = 256
	for _, c := range []struct {
		batch  int
		pageIO int64
	}{{1, 26804}, {16, 16519}, {64, 4471}} {
		th := newThroughput(t)
		io, err := th.Run(n, c.batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := io.Total(); got != c.pageIO {
			t.Errorf("batch %d: %d page I/Os over %d txns (%.2f/txn), want %d (%.2f/txn)",
				c.batch, got, n, float64(got)/n, c.pageIO, float64(c.pageIO)/n)
		}
		if drift, err := th.Drift(); err != nil {
			t.Fatal(err)
		} else if drift != "" {
			t.Errorf("batch %d drifted: %s", c.batch, drift)
		}
	}
}

// TestWindowAllocsSteadyState holds the per-window heap cost once
// directories, arenas and plan caches have warmed up. A batch-64 window
// allocates 175 objects: the new sales' id strings, what the stored
// relations retain for them, and one memo key per distinct probe and
// one sidecar entry per changed group, on the every-node fixture's 10
// views (98 on its 5 before the factorized push added five). Recycling
// that stops recycling adds hundreds.
func TestWindowAllocsSteadyState(t *testing.T) {
	th := newThroughput(t)
	window := func() {
		if _, err := th.Run(64, 64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		window()
	}
	if got := testing.AllocsPerRun(20, window); got > 200 {
		t.Errorf("steady-state batch-64 window allocates %.0f objects, want <= 200", got)
	}
}

// BenchmarkWindow64 is the same probe with time and bytes (DESIGN.md
// §12): one batch-64 window per op on a single long-lived harness.
//
//	go test -run '^$' -bench Window64 -benchmem ./internal/paper/
func BenchmarkWindow64(b *testing.B) {
	th := newThroughput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Run(64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead prices the always-on instrumentation (ROADMAP
// aim 4: at most 5 %): the same 2048-transaction stream in windows of
// 64 with the span tracer and flight recorder off and on. Trials are
// interleaved so host drift hits both arms, and each arm keeps its best
// of three. The registry's counters stay live in both arms.
//
// On a 2-CPU sandbox one such reading wanders from -16 % to +7 % around
// a true cost near zero, so a reading over budget is taken again and
// only three in a row fail.
func BenchmarkObsOverhead(b *testing.B) {
	const n, batch, trials, readings, budgetPct = 2048, 64, 3, 3, 5.0
	defer func() {
		obs.Trace.SetEnabled(true)
		obs.Flight().SetEnabled(true)
	}()
	rate := func(enabled bool) float64 {
		obs.Trace.SetEnabled(enabled)
		obs.Flight().SetEnabled(enabled)
		th := newThroughput(b)
		// Two cycles, so the timed run pays no sweep debt for set-up garbage.
		runtime.GC()
		runtime.GC()
		start := time.Now()
		if _, err := th.Run(n, batch); err != nil {
			b.Fatal(err)
		}
		return n / time.Since(start).Seconds()
	}
	var pct float64
	for i := 0; i < b.N; i++ {
		for r := 0; r < readings; r++ {
			var off, on float64
			for t := 0; t < trials; t++ {
				off = max(off, rate(false))
				on = max(on, rate(true))
			}
			if pct = 100 * (off - on) / off; pct <= budgetPct {
				break
			}
		}
	}
	b.ReportMetric(pct, "obs-overhead-%")
	if pct > budgetPct {
		b.Fatalf("tracer + flight recorder cost %.1f%% of batch-%d throughput on %d readings in a row, budget %.0f%%",
			pct, batch, readings, budgetPct)
	}
}

// TestPageIOFlatInStreamLength is the factorized push's claim as a count:
// over the view set the optimizer chooses for the stream (the partial
// γ[S.Item; SUM(Quantity), COUNT(*)](R ⋈ S) beside the root), the page
// I/O of maintenance per transaction is the same over 256 transactions
// and over 8 192, though every new sale raises a hot item's fan-out: a
// price change probes the partial once and a sale probes R and T once,
// whatever the item holds. The base relations' own apply is left out:
// appending sales to S writes a new page now and then wherever the rows
// fall (6 page writes more over the long stream). The every-node fixture
// above keeps R ⋈ S and the three-way join, whose maintenance grows with
// the fan-out.
func TestPageIOFlatInStreamLength(t *testing.T) {
	var perTxn [2]float64
	for i, n := range []int{256, 8192} {
		th, err := paper.NewThroughputChosen(corpus.DefaultFigure5Config())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.Run(n, 64); err != nil {
			t.Fatal(err)
		}
		if drift, err := th.Drift(); err != nil || drift != "" {
			t.Fatalf("n=%d drifted: %s %v", n, drift, err)
		}
		perTxn[i] = float64(th.MaintenanceIO()) / float64(n)
	}
	if perTxn[0] != perTxn[1] {
		t.Errorf("maintenance page I/O per transaction %.4f at n=256, %.4f at n=8192; want equal", perTxn[0], perTxn[1])
	}
	t.Logf("%.4f io/txn at n=256 and n=8192", perTxn[0])
}
