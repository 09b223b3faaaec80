package delta_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkAggregateFull times the full-group aggregate step at the
// shape of a fig5-batch64 window: SUM(Quantity*Price) by item over
// R ⋈ S ⋈ T rows, 16 affected groups of 276 pre-update rows each, and a
// price change on every group — 4 416 modifications in the delta. The
// plan and its arena are reused across iterations, as the maintainer
// reuses them across windows; ns and allocations are reported per delta
// row (modification).
func BenchmarkAggregateFull(b *testing.B) {
	const groups, rPerItem, sPerItem = 16, 4, 69
	col := func(q, n string, k value.Kind) catalog.Column {
		return catalog.Column{Qualifier: q, Name: n, Type: k}
	}
	in := catalog.NewSchema(
		col("R", "RName", value.String), col("R", "Item", value.String),
		col("S", "SName", value.String), col("S", "Item", value.String), col("S", "Quantity", value.Int),
		col("T", "Item", value.String), col("T", "Price", value.Int),
	)
	agg := algebra.NewAggregate(
		[]string{"T.Item"},
		[]algebra.AggSpec{{
			Func: algebra.Sum,
			Arg:  expr.Arith{Op: expr.Times, L: expr.C("S.Quantity"), R: expr.C("T.Price")},
			As:   "Revenue",
		}},
		algebra.Scan(&catalog.TableDef{Name: "RST", Schema: in}),
	)
	old := map[string][]storage.Row{}
	d := delta.New(in)
	for g := 0; g < groups; g++ {
		item := value.NewString(fmt.Sprintf("item%04d", g))
		for r := 0; r < rPerItem; r++ {
			for s := 0; s < sPerItem; s++ {
				row := value.Tuple{
					value.NewString(fmt.Sprintf("r%04d_%d", g, r)), item,
					value.NewString(fmt.Sprintf("s%04d_%d", g, s)), item, value.NewInt(int64(1 + s%5)),
					item, value.NewInt(int64(10 + g%7)),
				}
				old[value.Tuple{item}.Key()] = append(old[value.Tuple{item}.Key()], storage.Row{Tuple: row, Count: 1})
				repriced := row.Clone()
				repriced[6] = value.NewInt(int64(50 + g))
				d.Modify(row, repriced, 1)
			}
		}
	}
	var enc value.KeyEncoder
	oldGroup := func(gk value.Tuple) ([]storage.Row, error) { return old[string(enc.Key(gk))], nil }

	plan, err := delta.CompileAggregate(agg, in)
	if err != nil {
		b.Fatal(err)
	}
	var arena value.Arena
	plan.SetArena(&arena)
	run := func() {
		arena.Reset()
		out, _, err := plan.Full(d, oldGroup)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Changes) != groups {
			b.Fatalf("%d output changes, want %d", len(out.Changes), groups)
		}
	}
	run() // grow the scratch once, as the benchmark's warm-up windows do

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N * len(d.Changes))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}
