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

// referenceApplyBoth is JoinPlan.ApplyBoth as it stood while the join
// netted its own output: the three terms of the differential built as
// three deltas (the first two by one-sided applications of the plan, the
// third by nested loops over signed rows), copied into one and
// normalized. It is the oracle JoinPlan.Apply (un-netted) and ApplyInto
// (streamed) are compared against.
func referenceApplyBoth(j *algebra.Join, dl, dr *delta.Delta, probeL, probeR delta.Probe) (*delta.Delta, error) {
	p, err := delta.CompileJoin(j, j.L.Schema(), j.R.Schema())
	if err != nil {
		return nil, err
	}
	cat := delta.New(j.Schema())
	a, err := p.Apply(dl, nil, nil, probeR)
	if err != nil {
		return nil, err
	}
	cat.Changes = append(cat.Changes, a.Changes...)
	b, err := p.Apply(nil, dr, probeL, nil)
	if err != nil {
		return nil, err
	}
	cat.Changes = append(cat.Changes, b.Changes...)
	signed := func(d *delta.Delta) (rows []storage.Row) {
		for _, c := range d.Changes {
			if c.Old != nil {
				rows = append(rows, storage.Row{Tuple: c.Old, Count: -c.Count})
			}
			if c.New != nil {
				rows = append(rows, storage.Row{Tuple: c.New, Count: c.Count})
			}
		}
		return rows
	}
	for _, jr := range joinRows(j, signed(dl), signed(dr)) {
		if jr.Count > 0 {
			cat.Insert(jr.Tuple, jr.Count)
		} else {
			cat.Delete(jr.Tuple, -jr.Count)
		}
	}
	return cat.Normalize(), nil
}

// joinRows is the bag join of l and r by nested loops (counts multiply,
// so signed rows join to signed rows).
func joinRows(j *algebra.Join, l, r []storage.Row) (out []storage.Row) {
	ls, rs := j.L.Schema(), j.R.Schema()
	var residual *expr.Prog
	if j.Residual != nil {
		var err error
		if residual, err = expr.CompileProg(j.Residual, j.Schema()); err != nil {
			panic(err)
		}
	}
	for _, lr := range l {
	next:
		for _, rr := range r {
			for _, c := range j.On {
				li, _ := ls.Resolve(c.Left)
				ri, _ := rs.Resolve(c.Right)
				if !value.Equal(lr.Tuple[li], rr.Tuple[ri]) {
					continue next
				}
			}
			t := append(lr.Tuple.Clone(), rr.Tuple...)
			if residual != nil && !residual.Truth(t) {
				continue
			}
			out = append(out, storage.Row{Tuple: t, Count: lr.Count * rr.Count})
		}
	}
	return out
}

// bag is a small relation of (key, payload) rows the random windows below
// are drawn against.
type bag []storage.Row

func randomBag(rng *rand.Rand, keys int) bag {
	var b bag
	seen := map[[2]int]bool{}
	for i := rng.Intn(8); i > 0; i-- {
		k, v := rng.Intn(keys), rng.Intn(5)
		if !seen[[2]int{k, v}] {
			seen[[2]int{k, v}] = true
			b = append(b, storage.Row{Tuple: value.Tuple{value.NewInt(int64(k)), value.NewInt(int64(v))}, Count: int64(1 + rng.Intn(2))})
		}
	}
	return b
}

// randomDelta draws a valid delta against b: deletions and modifications
// of rows b holds (each row changed at most once, by at most its count),
// insertions of anything. Modifications keep or move the join key.
func (b bag) randomDelta(rng *rand.Rand, s *catalog.Schema, keys int) *delta.Delta {
	d := delta.New(s)
	for _, i := range rng.Perm(len(b))[:rng.Intn(len(b)+1)] {
		row := b[i]
		n := 1 + rng.Int63n(row.Count)
		switch rng.Intn(3) {
		case 0:
			d.Delete(row.Tuple, n)
		case 1: // payload change, key kept
			d.Modify(row.Tuple, value.Tuple{row.Tuple[0], value.NewInt(5 + rng.Int63n(5))}, n)
		default: // key change
			d.Modify(row.Tuple, value.Tuple{value.NewInt(int64(rng.Intn(keys))), value.NewInt(5 + rng.Int63n(5))}, n)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.Insert(value.Tuple{value.NewInt(int64(rng.Intn(keys))), value.NewInt(10 + rng.Int63n(5))}, 1+rng.Int63n(2))
	}
	return d
}

func (b bag) probe() delta.Probe {
	return func(jk value.Tuple) (rows []storage.Row, _ error) {
		for _, r := range b {
			if value.Equal(r.Tuple[0], jk[0]) {
				rows = append(rows, r)
			}
		}
		return rows, nil
	}
}

// TestJoinApplyAgainstNettedReference: on random windows that change
// both join inputs, the un-netted Apply nets to exactly what the netted
// reference returns, and ApplyInto + FinishFold — no join delta at all —
// gives the aggregate above it the same output delta and live counts as
// Incremental over that netted delta. Every third trial carries a
// residual, so halves of a paired modification go missing.
func TestJoinApplyAgainstNettedReference(t *testing.T) {
	col := func(q, n string) catalog.Column { return catalog.Column{Qualifier: q, Name: n, Type: value.Int} }
	lDef := &catalog.TableDef{Name: "L", Schema: catalog.NewSchema(col("L", "k"), col("L", "a"))}
	rDef := &catalog.TableDef{Name: "R", Schema: catalog.NewSchema(col("R", "k"), col("R", "b"))}
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		join := algebra.NewJoin([]algebra.JoinCond{{Left: "L.k", Right: "R.k"}}, algebra.Scan(lDef), algebra.Scan(rDef))
		if trial%3 == 2 {
			join.Residual = expr.Compare(expr.LE, expr.C("L.a"), expr.C("R.b"))
		}
		agg := algebra.NewAggregate([]string{"R.k"}, []algebra.AggSpec{
			{Func: algebra.Sum, Arg: expr.Arith{Op: expr.Times, L: expr.C("L.a"), R: expr.C("R.b")}, As: "s"},
			{Func: algebra.Count, As: "n"},
		}, join)
		const keys = 3
		l, r := randomBag(rng, keys), randomBag(rng, keys)
		dl, dr := l.randomDelta(rng, lDef.Schema, keys), r.randomDelta(rng, rDef.Schema, keys)
		if trial%7 == 0 {
			dr = delta.New(rDef.Schema) // one side only: the same body, no third term
		}
		label := fmt.Sprintf("trial %d (ΔL %v, ΔR %v)", trial, dl.Changes, dr.Changes)

		want, err := referenceApplyBoth(join, dl, dr, l.probe(), r.probe())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := delta.CompileJoin(join, lDef.Schema, rDef.Schema)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Apply(dl, dr, l.probe(), r.probe())
		if err != nil {
			t.Fatal(err)
		}
		if !sameDelta(got, want) {
			t.Fatalf("%s: Apply nets to %v, reference %v", label, got.Normalize().Changes, want.Changes)
		}
		held := len(got.Changes)

		// The aggregate's stored state: the pre-update join, grouped.
		old := map[string]value.Tuple{}
		oldLive := map[string]int64{}
		for _, jr := range joinRows(join, l, r) {
			k := value.Tuple{jr.Tuple[2]}.Key()
			if old[k] == nil {
				old[k] = value.Tuple{jr.Tuple[2], value.NewInt(0), value.NewInt(0)}
			}
			old[k][1].I += jr.Count * jr.Tuple[1].I * jr.Tuple[3].I
			old[k][2].I += jr.Count
			oldLive[k] += jr.Count
		}
		oldAgg := func(gk value.Tuple) (value.Tuple, int64, bool, error) {
			k := gk.Key()
			return old[k], oldLive[k], old[k] != nil, nil
		}
		netted, err := delta.CompileAggregate(agg, join.Schema())
		if err != nil {
			t.Fatal(err)
		}
		wantOut, lives, err := netted.Incremental(want, oldAgg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wantLive := liveMap(lives)
		streamed, err := delta.CompileAggregate(agg, join.Schema())
		if err != nil {
			t.Fatal(err)
		}
		n, err := plan.ApplyInto(streamed, dl, dr, l.probe(), r.probe())
		if err != nil {
			t.Fatal(err)
		}
		gotOut, lives, err := streamed.FinishFold(oldAgg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gotLive := liveMap(lives)
		if n != held {
			t.Errorf("%s: ApplyInto streamed %d changes, Apply held %d", label, n, held)
		}
		if !sameDelta(gotOut, wantOut) {
			t.Fatalf("%s: streamed aggregate delta %v, netted %v", label, gotOut.Changes, wantOut.Changes)
		}
		// A group whose rows all cancelled is touched by the stream and not
		// by the netted delta: its live count is reported, unchanged.
		for k, n := range gotLive {
			if w, ok := wantLive[k]; ok && w != n || !ok && n != oldLive[k] {
				t.Errorf("%s: group %x live %d, want %d (netted) / %d (old)", label, k, n, w, oldLive[k])
			}
		}
		for k := range wantLive {
			if _, ok := gotLive[k]; !ok {
				t.Errorf("%s: group %x missing from the streamed live counts", label, k)
			}
		}
	}
}

// TestFoldMultiplicityIsOneStep: a row of multiplicity n folds into an
// integer SUM as n·v, not as |n| additions — 1<<40 copies fold at once.
func TestFoldMultiplicityIsOneStep(t *testing.T) {
	in := catalog.NewSchema(
		catalog.Column{Qualifier: "T", Name: "g", Type: value.Int},
		catalog.Column{Qualifier: "T", Name: "v", Type: value.Int},
	)
	agg := algebra.NewAggregate([]string{"T.g"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("T.v"), As: "s"}},
		algebra.Scan(&catalog.TableDef{Name: "T", Schema: in}))
	const n = int64(1) << 40
	d := delta.New(in)
	d.Insert(value.Tuple{value.NewInt(1), value.NewInt(3)}, n)
	d.Delete(value.Tuple{value.NewInt(1), value.NewInt(2)}, n)
	stored := value.Tuple{value.NewInt(1), value.NewInt(2 * n)}
	out, lives, err := aggPlan(t, agg).Incremental(d, func(value.Tuple) (value.Tuple, int64, bool, error) {
		return stored, n, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Changes) != 1 || !out.Changes[0].IsModify() || out.Changes[0].New[1].AsInt() != 3*n {
		t.Errorf("delta = %v, want the group's sum to go from %d to %d", out.Changes, 2*n, 3*n)
	}
	if len(lives) != 1 || lives[0].Live != n {
		t.Errorf("live = %v, want one group of %d", lives, n)
	}
}
