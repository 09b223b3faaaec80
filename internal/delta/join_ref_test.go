package delta_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
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

// payload draws a payload value near base.
type payload func(rng *rand.Rand, base int64) value.Value

func intPayload(rng *rand.Rand, base int64) value.Value { return value.NewInt(base + rng.Int63n(5)) }

// joinKey draws a join key.
type joinKey func(rng *rand.Rand) value.Value

func intKey(rng *rand.Rand) value.Value { return value.NewInt(rng.Int63n(3)) }

func randomBag(rng *rand.Rand, key joinKey, pay payload) bag {
	var b bag
	seen := map[string]bool{}
	for i := rng.Intn(8); i > 0; i-- {
		t := value.Tuple{key(rng), pay(rng, 0)}
		if !seen[t.Key()] {
			seen[t.Key()] = true
			b = append(b, storage.Row{Tuple: t, Count: int64(1 + rng.Intn(3))})
		}
	}
	return b
}

// randomDelta draws a valid delta against b: deletions and modifications
// of rows b holds (each row changed at most once, by at most its count),
// insertions of anything. Modifications keep or move the join key.
func (b bag) randomDelta(rng *rand.Rand, s *catalog.Schema, key joinKey, pay payload) *delta.Delta {
	d := delta.New(s)
	for _, i := range rng.Perm(len(b))[:rng.Intn(len(b)+1)] {
		row := b[i]
		n := 1 + rng.Int63n(row.Count)
		switch rng.Intn(3) {
		case 0:
			d.Delete(row.Tuple, n)
		case 1: // payload change, key kept
			d.Modify(row.Tuple, value.Tuple{row.Tuple[0], pay(rng, 5)}, n)
		default: // key change
			d.Modify(row.Tuple, value.Tuple{key(rng), pay(rng, 5)}, n)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.Insert(value.Tuple{key(rng), pay(rng, 10)}, 1+rng.Int63n(3))
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

// foldShape is the join L(k, a) ⋈ R(k, b) on k, optionally with a
// residual, under SUM and COUNT of the product a*b beside COUNT(*) and a
// SUM of each side's payload alone, grouped by one column.
func foldShape(group string, residual bool) (*algebra.Join, *algebra.Aggregate) {
	col := func(q, n string) catalog.Column { return catalog.Column{Qualifier: q, Name: n, Type: value.Int} }
	lDef := &catalog.TableDef{Name: "L", Schema: catalog.NewSchema(col("L", "k"), col("L", "a"))}
	rDef := &catalog.TableDef{Name: "R", Schema: catalog.NewSchema(col("R", "k"), col("R", "b"))}
	join := algebra.NewJoin([]algebra.JoinCond{{Left: "L.k", Right: "R.k"}}, algebra.Scan(lDef), algebra.Scan(rDef))
	if residual {
		join.Residual = expr.Compare(expr.LE, expr.C("L.a"), expr.C("R.b"))
	}
	prod := expr.Arith{Op: expr.Times, L: expr.C("L.a"), R: expr.C("R.b")}
	return join, algebra.NewAggregate([]string{group}, []algebra.AggSpec{
		{Func: algebra.Sum, Arg: prod, As: "s"},
		{Func: algebra.Count, As: "n"},
		{Func: algebra.Count, Arg: prod, As: "c"},
		{Func: algebra.Sum, Arg: expr.C("L.a"), As: "sa"},
		{Func: algebra.Sum, Arg: expr.C("R.b"), As: "sb"},
	}, join)
}

// oldState is the aggregate's stored state before the window: its fold
// of l⋈r from nothing, and each group's live count.
func oldState(t *testing.T, join *algebra.Join, agg *algebra.Aggregate, l, r bag) (delta.OldAgg, map[string]int64) {
	t.Helper()
	seed := delta.New(join.Schema())
	for _, jr := range joinRows(join, l, r) {
		seed.Insert(jr.Tuple, jr.Count)
	}
	out, lives, err := aggPlan(t, agg).Incremental(seed, func(value.Tuple) (value.Tuple, int64, bool, error) {
		return nil, 0, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	old, live := map[string]value.Tuple{}, liveMap(lives)
	for _, c := range out.Changes {
		old[c.New[:len(agg.GroupBy)].Key()] = c.New
	}
	return func(gk value.Tuple) (value.Tuple, int64, bool, error) {
		k := gk.Key()
		return old[k], live[k], old[k] != nil, nil
	}, live
}

// checkStreamedFold holds one window of l⋈r into agg to its oracles: the
// un-netted Apply nets to referenceApplyBoth's delta; ApplyInto +
// FinishFold — no join delta, changes folded by side wherever Factor and
// the values allow — equals Incremental over the un-netted delta (the
// per-row fold, in its order) bit for bit, live counts included; and,
// when exact (no Float anywhere), it equals Incremental over the netted
// reference too. It returns the changes folded by side.
func checkStreamedFold(t *testing.T, label string, join *algebra.Join, agg *algebra.Aggregate, l, r bag, dl, dr *delta.Delta, exact bool) int64 {
	t.Helper()
	want, err := referenceApplyBoth(join, dl, dr, l.probe(), r.probe())
	if err != nil {
		t.Fatal(err)
	}
	plan := joinPlan(t, join)
	got, err := plan.Apply(dl, dr, l.probe(), r.probe())
	if err != nil {
		t.Fatal(err)
	}
	if !sameDelta(got, want) {
		t.Fatalf("%s: Apply nets to %v, reference %v", label, got.Normalize().Changes, want.Changes)
	}
	held := len(got.Changes)
	oldAgg, oldLive := oldState(t, join, agg, l, r)
	perRowOut, lives, err := aggPlan(t, agg).Incremental(got, oldAgg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	perRowLive := liveMap(lives)

	factored := obs.C("delta.fold.factored_changes")
	before := factored.Value()
	streamed := aggPlan(t, agg)
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
	if !sameDelta(gotOut, perRowOut) || !maps.Equal(gotLive, perRowLive) {
		t.Fatalf("%s: streamed aggregate delta %v live %v, per-row fold %v live %v", label, gotOut.Changes, gotLive, perRowOut.Changes, perRowLive)
	}
	if !exact {
		return factored.Value() - before
	}
	wantOut, lives, err := aggPlan(t, agg).Incremental(want, oldAgg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantLive := liveMap(lives)
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
	return factored.Value() - before
}

// TestJoinApplyAgainstNettedReference: on random windows that change
// both join inputs (every seventh changes L only), the un-netted Apply
// nets to exactly what the netted reference returns, and ApplyInto +
// FinishFold gives the aggregate above it what the per-row fold gives,
// bit for bit, and what Incremental over the netted delta gives where
// no Float is involved. Each arm varies one thing the factored fold
// decides on: NULL and Float payloads (a Float change falls back to the
// per-row fold), Int products that wrap, a group-by column on either
// side of the join, join keys that are Equal but encode differently
// (Int 0, 0.0, −0.0: matches that disagree on a group column they supply
// fold per row), and a residual. Multiplicities reach 3. The mixed-key
// arm changes both sides too: the ΔL⋈ΔR term matches keys by
// value.Equal, as the probes and the reference do.
func TestJoinApplyAgainstNettedReference(t *testing.T) {
	nullPayload := func(rng *rand.Rand, base int64) value.Value {
		if rng.Intn(3) == 0 {
			return value.NewNull()
		}
		return intPayload(rng, base)
	}
	floatPayload := func(rng *rand.Rand, base int64) value.Value {
		if rng.Intn(2) == 0 {
			return value.NewFloat(float64(base+rng.Int63n(5)) + 0.1)
		}
		return intPayload(rng, base)
	}
	hugePayload := func(rng *rand.Rand, base int64) value.Value {
		v := int64(1)<<62 + base + rng.Int63n(5)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return value.NewInt(v)
	}
	mixedKey := func(rng *rand.Rand) value.Value {
		switch n := rng.Int63n(2); rng.Intn(3) {
		case 0:
			return value.NewFloat(float64(n))
		case 1:
			if n == 0 {
				return value.NewFloat(math.Copysign(0, -1))
			}
		}
		return intKey(rng)
	}
	for _, arm := range []struct {
		name     string
		key      joinKey
		pay      payload
		exact    bool
		group    string
		residual bool
		factors  [2]bool // whether Factor splits a ΔL, a ΔR
	}{
		{"int by R.k", intKey, intPayload, true, "R.k", false, [2]bool{true, true}},
		{"null by R.k", intKey, nullPayload, true, "R.k", false, [2]bool{true, true}},
		{"near 2^62 by R.k", intKey, hugePayload, true, "R.k", false, [2]bool{true, true}},
		{"float by R.k", intKey, floatPayload, false, "R.k", false, [2]bool{true, true}},
		{"int by L.a", intKey, intPayload, true, "L.a", false, [2]bool{true, false}},
		{"null by R.b", intKey, nullPayload, true, "R.b", false, [2]bool{false, true}},
		{"mixed keys by R.k", mixedKey, intPayload, true, "R.k", false, [2]bool{true, true}},
		{"residual", intKey, intPayload, true, "R.k", true, [2]bool{false, false}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			join, agg := foldShape(arm.group, arm.residual)
			ls, rs := join.L.Schema(), join.R.Schema()
			for s, want := range arm.factors {
				if got := delta.Factor(join, agg, ls, rs, s) != nil; got != want {
					t.Fatalf("Factor(side %d) = %v, want %v", s, got, want)
				}
			}
			var factored int64
			for trial := 0; trial < 150; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				l, r := randomBag(rng, arm.key, arm.pay), randomBag(rng, arm.key, arm.pay)
				dl, dr := l.randomDelta(rng, ls, arm.key, arm.pay), r.randomDelta(rng, rs, arm.key, arm.pay)
				if trial%7 == 0 {
					dr = delta.New(rs) // one side only: the same body, no third term
				}
				label := fmt.Sprintf("trial %d (ΔL %v, ΔR %v)", trial, dl.Changes, dr.Changes)
				n := checkStreamedFold(t, label, join, agg, l, r, dl, dr, arm.exact)
				if n != 0 && arm.factors == [2]bool{} {
					t.Fatalf("%s: %d changes folded by side where Factor splits neither side", label, n)
				}
				factored += n
			}
			if arm.exact && arm.factors != [2]bool{} && factored == 0 {
				t.Fatal("no change folded by side")
			}
			t.Logf("%d changes folded by side", factored)
		})
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

// TestSignedZerosAreTwoGroups: +0.0 and −0.0 have different key
// encodings, so a recomputation groups them apart; the fold must too,
// though the second row's group is the previous row's under ==.
func TestSignedZerosAreTwoGroups(t *testing.T) {
	def := &catalog.TableDef{Name: "T", Schema: catalog.NewSchema(
		catalog.Column{Qualifier: "T", Name: "g", Type: value.Float},
		catalog.Column{Qualifier: "T", Name: "x", Type: value.Int},
	)}
	agg := algebra.NewAggregate([]string{"T.g"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("T.x"), As: "s"}}, algebra.Scan(def))
	rows := []value.Tuple{
		{value.NewFloat(0), value.NewInt(1)},
		{value.NewFloat(math.Copysign(0, -1)), value.NewInt(2)},
	}
	d := delta.New(def.Schema)
	for _, r := range rows {
		d.Insert(r, 1)
	}
	got, _, err := aggPlan(t, agg).Incremental(d, func(value.Tuple) (value.Tuple, int64, bool, error) {
		return nil, 0, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	rel, err := store.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	rel.LoadTuples(rows)
	res, err := exec.NewFree(store).Eval(agg)
	if err != nil {
		t.Fatal(err)
	}
	if want := resultDiff(agg.Schema(), &exec.Result{}, res); len(want.Changes) != 2 || !sameDelta(got, want) {
		t.Fatalf("fold = %v, recomputation = %v: want one group per zero", got.Changes, want.Changes)
	}
}
