package delta_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// liveMap keys the plan's live counts by group key (value.Tuple.Key()
// form), as the references report them.
func liveMap(lives []delta.GroupLive) map[string]int64 {
	m := map[string]int64{}
	for _, g := range lives {
		m[g.Key.Key()] = g.Live
	}
	return m
}

// referenceAggregateFull is the full-group aggregate path in its
// uncompiled form — per affected group, restrict the delta to the group,
// build the post-update bag and aggregate both bags from scratch. It is
// the oracle AggregatePlan.Full is compared against; live maps each
// affected group key (value.Tuple.Key() form) to the post-update bag's
// cardinality.
func referenceAggregateFull(a *algebra.Aggregate, d *delta.Delta, oldGroup func(value.Tuple) ([]storage.Row, error)) (out *delta.Delta, live map[string]int64, err error) {
	in := d.Schema
	gpos := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		j, err := in.Resolve(g)
		if err != nil {
			return nil, nil, err
		}
		gpos[i] = j
	}
	out = delta.New(a.Schema())
	live = map[string]int64{}
	for _, gk := range affectedKeys(d, gpos) {
		oldRows, err := oldGroup(gk)
		if err != nil {
			return nil, nil, err
		}
		// Restrict the delta to this group.
		sub := delta.New(in)
		for _, c := range d.Changes {
			oldIn := c.Old != nil && c.Old.Project(gpos).Equal(gk)
			newIn := c.New != nil && c.New.Project(gpos).Equal(gk)
			switch {
			case oldIn && newIn:
				sub.Changes = append(sub.Changes, c)
			case oldIn:
				sub.Delete(c.Old, c.Count)
			case newIn:
				sub.Insert(c.New, c.Count)
			}
		}
		newRows := applyTo(oldRows, sub)
		live[gk.Key()] = 0
		for _, r := range newRows {
			live[gk.Key()] += r.Count
		}
		oldTuple, oldOK, err := aggregateGroup(a, in, gk, oldRows)
		if err != nil {
			return nil, nil, err
		}
		newTuple, newOK, err := aggregateGroup(a, in, gk, newRows)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case oldOK && newOK:
			out.Modify(oldTuple, newTuple, 1)
		case oldOK:
			out.Delete(oldTuple, 1)
		case newOK:
			out.Insert(newTuple, 1)
		}
	}
	return out, live, nil
}

// affectedKeys returns the distinct projections of all changed tuples
// (old and new sides) onto pos, in first-seen order.
func affectedKeys(d *delta.Delta, pos []int) []value.Tuple {
	seen := map[string]bool{}
	var out []value.Tuple
	add := func(t value.Tuple) {
		if t == nil {
			return
		}
		k := t.Project(pos)
		if !seen[k.Key()] {
			seen[k.Key()] = true
			out = append(out, k)
		}
	}
	for _, c := range d.Changes {
		add(c.Old)
		add(c.New)
	}
	return out
}

// applyTo applies the delta to a bag of rows (pre-update), returning the
// post-update bag. A deletion of more copies than the bag holds is
// clamped at none.
func applyTo(rows []storage.Row, d *delta.Delta) []storage.Row {
	net := map[string]*storage.Row{}
	var order []string
	add := func(t value.Tuple, n int64) {
		k := t.Key()
		if e, ok := net[k]; ok {
			e.Count += n
		} else {
			net[k] = &storage.Row{Tuple: t, Count: n}
			order = append(order, k)
		}
	}
	for _, r := range rows {
		add(r.Tuple, r.Count)
	}
	for _, c := range d.Changes {
		n := max(c.Count, 1)
		if c.Old != nil {
			add(c.Old, -n)
		}
		if c.New != nil {
			add(c.New, n)
		}
	}
	var out []storage.Row
	for _, k := range order {
		if e := net[k]; e.Count > 0 {
			out = append(out, *e)
		}
	}
	return out
}

// aggregateGroup computes the output tuple for one group over the given
// child rows; ok is false when the group is empty.
func aggregateGroup(a *algebra.Aggregate, in *catalog.Schema, gk value.Tuple, rows []storage.Row) (value.Tuple, bool, error) {
	var total int64
	for _, r := range rows {
		total += r.Count
	}
	if total <= 0 {
		return nil, false, nil
	}
	out := make(value.Tuple, 0, len(gk)+len(a.Aggs))
	out = append(out, gk...)
	for _, ag := range a.Aggs {
		if ag.Arg == nil { // COUNT(*)
			out = append(out, value.NewInt(total))
			continue
		}
		f, err := expr.CompileProg(ag.Arg, in)
		if err != nil {
			return nil, false, err
		}
		sum := value.NewInt(0)
		var count int64
		var minV, maxV value.Value
		for _, r := range rows {
			v := f.Eval(r.Tuple)
			if v.IsNull() {
				continue
			}
			for j := int64(0); j < r.Count; j++ {
				sum = value.Add(sum, v)
			}
			count += r.Count
			if minV.IsNull() || value.Compare(v, minV) < 0 {
				minV = v
			}
			if maxV.IsNull() || value.Compare(v, maxV) > 0 {
				maxV = v
			}
		}
		switch ag.Func {
		case algebra.Sum:
			if count == 0 {
				out = append(out, value.NewNull())
			} else {
				out = append(out, sum)
			}
		case algebra.Count:
			out = append(out, value.NewInt(count))
		case algebra.Avg:
			if count == 0 {
				out = append(out, value.NewNull())
			} else {
				out = append(out, value.NewFloat(sum.AsFloat()/float64(count)))
			}
		case algebra.Min:
			out = append(out, minV)
		case algebra.Max:
			out = append(out, maxV)
		default:
			return nil, false, fmt.Errorf("delta: unsupported aggregate %s", ag.Func)
		}
	}
	return out, true, nil
}

// The differential corpus: rows (G, X, Y) grouped by G, where X is a
// nullable int and Y a nullable float in tenths — sums of those round,
// so SUM(Y) also checks that both implementations add in the same order.
var fullSchema = catalog.NewSchema(
	catalog.Column{Qualifier: "F", Name: "G", Type: value.String},
	catalog.Column{Qualifier: "F", Name: "X", Type: value.Int},
	catalog.Column{Qualifier: "F", Name: "Y", Type: value.Float},
)

func fullRow(g, x, y int) value.Tuple {
	t := value.Tuple{value.NewString(fmt.Sprintf("g%d", g)), value.NewNull(), value.NewNull()}
	if x >= 0 {
		t[1] = value.NewInt(int64(x))
	}
	if y >= 0 {
		t[2] = value.NewFloat(float64(y) / 10)
	}
	return t
}

// fullAggs returns the aggregate under test: SUM, COUNT, COUNT(*) and
// AVG, plus MIN and MAX when minMax is set.
func fullAggs(minMax bool) *algebra.Aggregate {
	specs := []algebra.AggSpec{
		{Func: algebra.Sum, Arg: expr.C("F.X"), As: "SumX"},
		{Func: algebra.Count, Arg: expr.C("F.X"), As: "CountX"},
		{Func: algebra.Count, As: "N"},
		{Func: algebra.Avg, Arg: expr.C("F.X"), As: "AvgX"},
		{Func: algebra.Sum, Arg: expr.C("F.Y"), As: "SumY"},
	}
	if minMax {
		specs = append(specs,
			algebra.AggSpec{Func: algebra.Min, Arg: expr.C("F.X"), As: "MinX"},
			algebra.AggSpec{Func: algebra.Max, Arg: expr.C("F.Y"), As: "MaxY"})
	}
	child := algebra.Scan(&catalog.TableDef{Name: "F", Schema: fullSchema})
	return algebra.NewAggregate([]string{"F.G"}, specs, child)
}

// bagModel is a bag of rows the test scripts updates against, so the
// deltas it records start out consistent with the state they apply to.
type bagModel struct {
	rows map[string]storage.Row
	keys []string // insertion order, for deterministic picks
}

func newBagModel() *bagModel { return &bagModel{rows: map[string]storage.Row{}} }

func (b *bagModel) add(t value.Tuple, n int64) {
	k := t.Key()
	r, ok := b.rows[k]
	if !ok {
		b.keys = append(b.keys, k)
	}
	b.rows[k] = storage.Row{Tuple: t, Count: r.Count + n}
}

// live returns the rows present, in insertion order.
func (b *bagModel) live() []storage.Row {
	var out []storage.Row
	for _, k := range b.keys {
		if r := b.rows[k]; r.Count > 0 {
			out = append(out, r)
		}
	}
	return out
}

func (b *bagModel) group(gk value.Tuple) []storage.Row {
	var out []storage.Row
	for _, r := range b.live() {
		if value.Equal(r.Tuple[0], gk[0]) {
			out = append(out, r)
		}
	}
	return out
}

// checkFull runs d through both implementations against pre and compares
// normalized output deltas and per-group live counts.
func checkFull(t *testing.T, label string, agg *algebra.Aggregate, plan *delta.AggregatePlan, pre *bagModel, d *delta.Delta) {
	t.Helper()
	oldGroup := func(gk value.Tuple) ([]storage.Row, error) { return pre.group(gk), nil }
	want, wantLive, err := referenceAggregateFull(agg, d, oldGroup)
	if err != nil {
		t.Fatal(err)
	}
	got, lives, err := plan.Full(d, oldGroup)
	gotLive := liveMap(lives)
	if err != nil {
		t.Fatalf("%s: %v\ndelta %v", label, err, d.Changes)
	}
	if !sameDelta(got, want) {
		t.Fatalf("%s: Full diverges from the reference\ndelta %v\ngot  %v\nwant %v",
			label, d.Changes, got.Normalize().Changes, want.Normalize().Changes)
	}
	if len(gotLive) != len(wantLive) {
		t.Fatalf("%s: live counts for %d groups, want %d", label, len(gotLive), len(wantLive))
	}
	for k, n := range wantLive {
		if gotLive[k] != n {
			t.Fatalf("%s: group %x live = %d, want %d\ndelta %v", label, k, gotLive[k], n, d.Changes)
		}
	}
}

// TestAggregatePlanFullMatchesReference: the compiled full-group path
// equals the reference on deltas scripted against a real pre-state —
// first the shapes bucketing and netting could get wrong, each by hand,
// then random scripts, raw and normalized, through one plan whose scratch
// carries over from delta to delta. Some scripts also touch a row that is
// already gone (two transactions of one window deleting the same row):
// both implementations clamp that at none.
func TestAggregatePlanFullMatchesReference(t *testing.T) {
	for _, minMax := range []bool{false, true} {
		agg := fullAggs(minMax)
		plan, err := delta.CompileAggregate(agg, fullSchema)
		if err != nil {
			t.Fatal(err)
		}
		var arena value.Arena
		plan.SetArena(&arena)

		pre := newBagModel()
		pre.add(fullRow(0, 5, 2), 1)
		pre.add(fullRow(0, 9, 8), 3)  // multiplicity > 1, holds g0's MAX(Y)
		pre.add(fullRow(0, 1, -1), 1) // holds g0's MIN(X)
		pre.add(fullRow(1, 7, 4), 2)
		pre.add(fullRow(2, -1, -1), 1) // g2 has only NULL arguments
		pre.add(fullRow(3, 4, 4), 1)

		hand := map[string]func(d *delta.Delta){
			"row moves between groups": func(d *delta.Delta) {
				d.Modify(fullRow(0, 9, 8), fullRow(1, 9, 8), 2)
			},
			"group dies and another is born": func(d *delta.Delta) {
				d.Delete(fullRow(1, 7, 4), 2)
				d.Insert(fullRow(7, 3, 3), 2)
			},
			"sub-delta nets to nothing": func(d *delta.Delta) {
				d.Insert(fullRow(3, 6, 6), 1)
				d.Modify(fullRow(3, 6, 6), fullRow(3, 8, 8), 1)
				d.Delete(fullRow(3, 8, 8), 1)
			},
			"extremes deleted": func(d *delta.Delta) {
				d.Delete(fullRow(0, 1, -1), 1)
				d.Delete(fullRow(0, 9, 8), 3)
			},
			"row deleted, then modified from its stale value": func(d *delta.Delta) {
				d.Delete(fullRow(1, 7, 4), 2)
				d.Modify(fullRow(1, 7, 4), fullRow(1, 8, 4), 1)
				d.Delete(fullRow(3, 4, 4), 1)
				d.Delete(fullRow(3, 4, 4), 1)
			},
			"NULL arguments come and go": func(d *delta.Delta) {
				d.Modify(fullRow(2, -1, -1), fullRow(2, 2, -1), 1)
				d.Insert(fullRow(0, -1, 3), 2)
				d.Modify(fullRow(3, 4, 4), fullRow(3, -1, -1), 1)
			},
		}
		for label, build := range hand {
			d := delta.New(fullSchema)
			build(d)
			arena.Reset()
			checkFull(t, fmt.Sprintf("minMax=%v %s", minMax, label), agg, plan, pre, d)
		}

		rng := rand.New(rand.NewSource(15))
		for trial := 0; trial < 300; trial++ {
			pre := newBagModel()
			for i := 0; i < rng.Intn(12); i++ {
				pre.add(fullRow(rng.Intn(4), rng.Intn(6)-1, rng.Intn(6)-1), int64(1+rng.Intn(3)))
			}
			// cur evolves under the script; d records it.
			cur := newBagModel()
			for _, r := range pre.live() {
				cur.add(r.Tuple, r.Count)
			}
			d := delta.New(fullSchema)
			for i := 0; i < 1+rng.Intn(10); i++ {
				fresh := fullRow(rng.Intn(5), rng.Intn(6)-1, rng.Intn(6)-1)
				live := cur.live()
				if len(live) == 0 || rng.Intn(3) == 0 {
					n := int64(1 + rng.Intn(2))
					d.Insert(fresh, n)
					cur.add(fresh, n)
					continue
				}
				victim := live[rng.Intn(len(live))]
				if rng.Intn(8) == 0 { // stale: delete it, whatever is left of it
					d.Delete(victim.Tuple, victim.Count+1)
					cur.add(victim.Tuple, -victim.Count)
					continue
				}
				n := 1 + rng.Int63n(victim.Count)
				cur.add(victim.Tuple, -n)
				if rng.Intn(2) == 0 {
					d.Delete(victim.Tuple, n)
				} else if !fresh.Equal(victim.Tuple) {
					d.Modify(victim.Tuple, fresh, n)
					cur.add(fresh, n)
				} else {
					cur.add(victim.Tuple, n)
				}
			}
			arena.Reset()
			checkFull(t, fmt.Sprintf("minMax=%v trial %d", minMax, trial), agg, plan, pre, d)
			arena.Reset()
			checkFull(t, fmt.Sprintf("minMax=%v trial %d normalized", minMax, trial), agg, plan, pre, d.Normalize())
		}
	}
}

// TestAggregateFullFloatSumStable: a float SUM the full-group path writes
// in one window is bit-equal to the pre-update value the next window
// recomputes from the surviving rows — otherwise the view's stored row
// would not match the next modification's old side. 0.1+0.7-0.7+0.2 is
// 0.3 but 0.1+0.2 is 0.30000000000000004.
func TestAggregateFullFloatSumStable(t *testing.T) {
	agg := fullAggs(false)
	plan, err := delta.CompileAggregate(agg, fullSchema)
	if err != nil {
		t.Fatal(err)
	}
	var arena value.Arena
	plan.SetArena(&arena)

	bag := newBagModel()
	bag.add(fullRow(0, 1, 1), 1)
	bag.add(fullRow(0, 2, 7), 1)
	oldGroup := func(gk value.Tuple) ([]storage.Row, error) { return bag.group(gk), nil }

	d1 := delta.New(fullSchema)
	d1.Delete(fullRow(0, 2, 7), 1)
	d1.Insert(fullRow(0, 3, 2), 1)
	checkFull(t, "window 1", agg, plan, bag, d1)
	out1, _, err := plan.Full(d1, oldGroup)
	if err != nil {
		t.Fatal(err)
	}
	written := out1.Changes[0].New.Clone()
	bag.add(fullRow(0, 2, 7), -1)
	bag.add(fullRow(0, 3, 2), 1)

	arena.Reset()
	d2 := delta.New(fullSchema)
	d2.Insert(fullRow(0, 4, 5), 1)
	checkFull(t, "window 2", agg, plan, bag, d2)
	out2, _, err := plan.Full(d2, oldGroup)
	if err != nil {
		t.Fatal(err)
	}
	if read := out2.Changes[0].Old; !read.Equal(written) {
		t.Fatalf("window 2 reads %v as the group's old tuple, window 1 wrote %v", read, written)
	}
}
