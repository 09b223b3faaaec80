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

// BenchmarkJoinAggregateWindow times the join → aggregate path of a
// fig5-batch64 window: 16 price changes on T (netted by the coalescer to
// a deletion and an insertion each) against a 276-row fan-out in R ⋈ S,
// beside the R ⋈ S rows of 13 sales inserted or deleted (4 each) — both
// inputs of R ⋈ S ⋈ T changed — into SUM(Quantity*Price) by item.
// "streamed" is what the maintainer runs when the join is not
// materialized (ApplyInto, FinishFold: no join delta; every change folds
// by side); "streamed-float" is the same window with Float prices, which
// every change folds per joined row; "netted" is what it runs when
// something needs the join's delta (Apply, NormalizeInto, then
// Incremental over it). Plans, normalizer and arena are reused across
// iterations, as the maintainer reuses them across windows.
func BenchmarkJoinAggregateWindow(b *testing.B) {
	const items, rPerItem, sPerItem, sales = 16, 4, 69, 13
	col := func(q, n string, k value.Kind) catalog.Column {
		return catalog.Column{Qualifier: q, Name: n, Type: k}
	}
	rs := catalog.NewSchema(
		col("R", "RName", value.String), col("R", "Item", value.String),
		col("S", "SName", value.String), col("S", "Item", value.String), col("S", "Quantity", value.Int),
	)
	ts := catalog.NewSchema(col("T", "Item", value.String), col("T", "Price", value.Int))
	join := algebra.NewJoin([]algebra.JoinCond{{Left: "S.Item", Right: "T.Item"}},
		algebra.Scan(&catalog.TableDef{Name: "RS", Schema: rs}), algebra.Scan(&catalog.TableDef{Name: "T", Schema: ts}))
	agg := algebra.NewAggregate(
		[]string{"T.Item"},
		[]algebra.AggSpec{{
			Func: algebra.Sum,
			Arg:  expr.Arith{Op: expr.Times, L: expr.C("S.Quantity"), R: expr.C("T.Price")},
			As:   "Revenue",
		}},
		join,
	)
	rsRow := func(g, r int, sale string, qty int64) value.Tuple {
		item := value.NewString(fmt.Sprintf("item%04d", g))
		return value.Tuple{value.NewString(fmt.Sprintf("r%04d_%d", g, r)), item, value.NewString(sale), item, value.NewInt(qty)}
	}
	var enc value.KeyEncoder
	// window is one window's deltas and pre-update state, every price
	// made by price.
	type window struct {
		dl, dr         *delta.Delta
		probeL, probeR delta.Probe
		oldAgg         delta.OldAgg
	}
	build := func(price func(int64) value.Value) window {
		rsOld, tOld := map[string][]storage.Row{}, map[string][]storage.Row{}
		stored := map[string]value.Tuple{}
		w := window{dl: delta.New(rs), dr: delta.New(ts)}
		for g := 0; g < items; g++ {
			item := value.NewString(fmt.Sprintf("item%04d", g))
			k := value.Tuple{item}.Key()
			p, sum := price(int64(10+g%7)), value.NewInt(0)
			for r := 0; r < rPerItem; r++ {
				for s := 0; s < sPerItem; s++ {
					row := rsRow(g, r, fmt.Sprintf("s%04d_%d", g, s), int64(1+s%5))
					rsOld[k] = append(rsOld[k], storage.Row{Tuple: row, Count: 1})
					sum = value.Add(sum, value.Mul(row[4], p))
					if s == 0 && g < sales && g%2 == 0 {
						w.dl.Delete(row, 1) // this item's first sale is deleted
					}
				}
				if g < sales && g%2 == 1 {
					w.dl.Insert(rsRow(g, r, fmt.Sprintf("new%04d", g), 3), 1) // a new sale of this item
				}
			}
			tOld[k] = []storage.Row{{Tuple: value.Tuple{item, p}, Count: 1}}
			stored[k] = value.Tuple{item, sum}
			w.dr.Delete(tOld[k][0].Tuple, 1)
			w.dr.Insert(value.Tuple{item, price(int64(50 + g))}, 1)
		}
		w.probeL = func(jk value.Tuple) ([]storage.Row, error) { return rsOld[string(enc.Key(jk))], nil }
		w.probeR = func(jk value.Tuple) ([]storage.Row, error) { return tOld[string(enc.Key(jk))], nil }
		w.oldAgg = func(gk value.Tuple) (value.Tuple, int64, bool, error) {
			return stored[string(enc.Key(gk))], rPerItem * sPerItem, true, nil
		}
		return w
	}
	ints := build(value.NewInt)
	floats := build(func(p int64) value.Value { return value.NewFloat(float64(p) + 0.5) })

	jp, err := delta.CompileJoin(join, rs, ts)
	if err != nil {
		b.Fatal(err)
	}
	ap, err := delta.CompileAggregate(agg, join.Schema())
	if err != nil {
		b.Fatal(err)
	}
	var arena value.Arena
	jp.SetArena(&arena)
	ap.SetArena(&arena)
	var nz delta.Normalizer
	var net delta.Delta
	finish := func(out *delta.Delta, err error) {
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Changes) != items {
			b.Fatalf("%d output changes, want %d", len(out.Changes), items)
		}
	}
	streamed := func(w window) func() {
		return func() {
			if _, err := jp.ApplyInto(ap, w.dl, w.dr, w.probeL, w.probeR); err != nil {
				b.Fatal(err)
			}
			out, _, err := ap.FinishFold(w.oldAgg)
			finish(out, err)
		}
	}
	for _, mode := range []struct {
		name string
		run  func()
	}{
		{"streamed", streamed(ints)},
		{"streamed-float", streamed(floats)},
		{"netted", func() {
			d, err := jp.Apply(ints.dl, ints.dr, ints.probeL, ints.probeR)
			if err != nil {
				b.Fatal(err)
			}
			out, _, err := ap.Incremental(nz.NormalizeInto(d, &net), ints.oldAgg)
			finish(out, err)
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			arena.Reset()
			mode.run() // grow the scratch once, as the benchmark's warm-up windows do
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				mode.run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/window")
		})
	}
}
