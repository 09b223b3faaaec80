package delta_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// FuzzDeltaApply decodes the fuzz input as a transaction script over the
// Emp relation (inserts, deletes and modifies of live rows), propagates
// the resulting delta through the join → aggregate pipeline, and
// compares both stages against the full-recomputation oracle. Any input
// the decoder accepts must produce exactly the oracle's delta. The same
// bytes also drive a streamed leg (fuzzStreamed).
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{0, 1, 0, 50})
	f.Add([]byte{1, 0, 0, 0, 2, 1, 1, 30})
	f.Add([]byte{2, 2, 1, 90, 0, 0, 0, 10, 1, 1, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0})
	// Merged-batch shapes: a hire immediately fired (annihilating +1/−1
	// pair), the same tuple inserted twice then deleted twice (same-key
	// insert+delete with multiplicity), and a modify bounced back to near
	// its original value — the windows batching must net out.
	f.Add([]byte{0, 1, 1, 40, 1, 6, 0, 0})
	f.Add([]byte{0, 0, 2, 10, 0, 0, 2, 10, 1, 6, 0, 0, 1, 6, 0, 0})
	f.Add([]byte{2, 0, 1, 60, 2, 0, 2, 60, 2, 0, 1, 60})
	// Merged batch with a shared subexpression: two modifies move distinct
	// rows into the same department at the same salary (their group-key
	// probes collapse to one shared query along the track), then a hire
	// lands in the dangling department — the coalesced window poses the
	// same σ[DName=k] subexpression from multiple changes.
	f.Add([]byte{2, 0, 1, 55, 2, 1, 1, 55, 0, 0, 3, 20})
	// Streamed-leg shapes (fuzzStreamed): a NULL payload in L's bag and a
	// Float inserted into R on the same key, both sides changing; a
	// product near 2^62 grouped by L.a; a residual with a key move.
	f.Add([]byte{0, 0, 1, 7, 1, 1, 1, 3, 0, 2, 1, 2, 0, 3, 1, 6, 1})
	f.Add([]byte{1, 0, 2, 5, 0, 1, 2, 13, 1, 2, 2, 21, 2, 4, 0, 4, 7, 3, 2, 3, 0})
	f.Add([]byte{4, 0, 0, 3, 1, 1, 0, 4, 2, 4, 0, 4, 6, 9, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		fuzzStreamed(t, data)
		db := corpus.NewDatabase(corpus.Config{Departments: 3, EmpsPerDept: 2})
		join := algebra.NewJoin(
			[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
			algebra.Scan(db.Catalog.MustGet("Emp")),
			algebra.Scan(db.Catalog.MustGet("Dept")),
		)
		agg := algebra.NewAggregate(
			[]string{"Dept.DName", "Dept.Budget"},
			[]algebra.AggSpec{
				{Func: algebra.Sum, Arg: expr.C("Emp.Salary"), As: "SumSal"},
				{Func: algebra.Count, As: "N"},
			},
			join,
		)
		ev := exec.NewFree(db.Store)
		beforeJoin, err := ev.Eval(join)
		if err != nil {
			t.Fatal(err)
		}
		beforeAgg, err := ev.Eval(agg)
		if err != nil {
			t.Fatal(err)
		}

		// live mirrors the Emp bag so the script only deletes/modifies
		// rows that exist (the engine maintains relations, not arbitrary
		// negative bags).
		empScan, err := ev.Eval(algebra.Scan(db.Catalog.MustGet("Emp")))
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]storage.Row{}
		for _, r := range empScan.Rows {
			live[r.Tuple.Key()] = storage.Row{Tuple: r.Tuple.Clone(), Count: r.Count}
		}
		liveKeys := func() []string {
			out := make([]string, 0, len(live))
			for k := range live {
				out = append(out, k)
			}
			sort.Strings(out)
			return out
		}

		d := delta.New(join.L.Schema())
		// windows mirrors the script one change per "transaction", so the
		// batching pipeline's coalescing can be checked against the
		// sequential composition.
		var windows []map[string]*delta.Delta
		record := func() *delta.Delta {
			sub := delta.New(join.L.Schema())
			windows = append(windows, map[string]*delta.Delta{"Emp": sub})
			return sub
		}
		seq := 0
		for len(data) >= 4 {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			switch op % 3 {
			case 0: // hire
				tup := value.Tuple{
					value.NewString(corpus.EmpName(int(a%3), 10+seq)),
					value.NewString(corpus.DeptName(int(b % 4))), // dept 3 dangles
					value.NewInt(int64(c)),
				}
				d.Insert(tup, 1)
				record().Insert(tup, 1)
				r := live[tup.Key()]
				live[tup.Key()] = storage.Row{Tuple: tup, Count: r.Count + 1}
			case 1: // fire a live row
				keys := liveKeys()
				if len(keys) == 0 {
					continue
				}
				victim := live[keys[int(a)%len(keys)]]
				d.Delete(victim.Tuple, 1)
				record().Delete(victim.Tuple, 1)
				if victim.Count <= 1 {
					delete(live, victim.Tuple.Key())
				} else {
					victim.Count--
					live[victim.Tuple.Key()] = victim
				}
			default: // change a live row's salary and maybe department
				keys := liveKeys()
				if len(keys) == 0 {
					continue
				}
				old := live[keys[int(a)%len(keys)]]
				newT := old.Tuple.Clone()
				newT[1] = value.NewString(corpus.DeptName(int(b % 4)))
				newT[2] = value.NewInt(int64(c))
				if newT.Equal(old.Tuple) {
					continue
				}
				d.Modify(old.Tuple, newT, 1)
				record().Modify(old.Tuple, newT, 1)
				if old.Count <= 1 {
					delete(live, old.Tuple.Key())
				} else {
					old.Count--
					live[old.Tuple.Key()] = old
				}
				r := live[newT.Key()]
				live[newT.Key()] = storage.Row{Tuple: newT, Count: r.Count + 1}
			}
			seq++
		}
		if d.Empty() {
			t.Skip()
		}

		// Coalescing the per-transaction windows must equal the composed
		// script delta (signed bag addition — this is what licenses the
		// batch pipeline to propagate once per window).
		var co delta.Coalescer
		merged := co.Coalesce(windows)
		mergedEmp := merged.Get("Emp")
		if mergedEmp == nil {
			mergedEmp = delta.New(join.L.Schema())
		}
		if !sameDelta(mergedEmp, d.Normalize()) {
			t.Fatalf("coalesce diverges from composition\nscript: %v\ngot  %v\nwant %v",
				d.Changes, mergedEmp.Changes, d.Normalize().Changes)
		}

		joinDelta, err := joinPlan(t, join).Apply(d, nil, nil, storeProbe(db.Store.MustGet("Dept"), []string{"Dept.DName"}))
		if err != nil {
			t.Fatal(err)
		}
		oldGroup := func(gk value.Tuple) ([]storage.Row, error) {
			evq := exec.NewFree(db.Store)
			res, err := evq.EvalFiltered(join, []string{"Dept.DName"}, gk[:1])
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}
		aggDelta, _, err := aggPlan(t, agg).Full(joinDelta, oldGroup)
		if err != nil {
			t.Fatal(err)
		}
		refDelta, _, err := referenceAggregateFull(agg, joinDelta, oldGroup)
		if err != nil {
			t.Fatal(err)
		}

		db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
		afterJoin, err := ev.Eval(join)
		if err != nil {
			t.Fatal(err)
		}
		afterAgg, err := ev.Eval(agg)
		if err != nil {
			t.Fatal(err)
		}
		if want := resultDiff(join.Schema(), beforeJoin, afterJoin); !sameDelta(joinDelta, want) {
			t.Fatalf("join stage diverges from full recomputation\nscript: %v\ngot  %v\nwant %v",
				d.Changes, joinDelta.Normalize().Changes, want.Changes)
		}
		want := resultDiff(agg.Schema(), beforeAgg, afterAgg)
		for name, got := range map[string]*delta.Delta{"compiled": aggDelta, "reference": refDelta} {
			if !sameDelta(got, want) {
				t.Fatalf("%s aggregate stage diverges from full recomputation\nscript: %v\ngot  %v\nwant %v",
					name, d.Changes, got.Normalize().Changes, want.Changes)
			}
		}
	})
}

// fuzzStreamed is FuzzDeltaApply's streamed leg: data[0] picks foldShape's
// group-by column and residual, and each 4-byte step (op, k, v, n) adds
// a row of key k%3 and payload v to one side's pre-update bag, inserts
// one into that side's delta, or deletes or modifies (keeping or moving
// the key) a bag row not changed yet. A payload byte decodes to a small
// Int, NULL, a Float or an Int near 2^62. checkStreamedFold then holds
// ApplyInto + FinishFold to the per-row fold and, with no Float, to
// Incremental over the netted reference.
func fuzzStreamed(t *testing.T, data []byte) {
	if len(data) < 5 {
		return
	}
	join, agg := foldShape([]string{"R.k", "L.a", "R.b"}[data[0]%3], data[0]&4 != 0)
	exact := true
	val := func(b byte) value.Value {
		switch b % 8 {
		case 7:
			return value.NewNull()
		case 6:
			exact = false
			return value.NewFloat(float64(b>>3) + 0.1)
		case 5:
			return value.NewInt(int64(1)<<62 + int64(b>>3))
		}
		return value.NewInt(int64(b % 8))
	}
	var bags [2]bag
	ds := [2]*delta.Delta{delta.New(join.L.Schema()), delta.New(join.R.Schema())}
	changed := [2]map[int]bool{{}, {}}
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		op, k, v, n := data[0], data[1], data[2], data[3]
		side, count := int(op%2), int64(1+n%3)
		key := value.NewInt(int64(k % 3))
		switch op / 2 % 3 {
		case 0:
			bags[side] = append(bags[side], storage.Row{Tuple: value.Tuple{key, val(v)}, Count: count})
		case 1:
			ds[side].Insert(value.Tuple{key, val(v)}, count)
		default:
			i := int(k) % max(len(bags[side]), 1)
			if len(bags[side]) == 0 || changed[side][i] {
				continue
			}
			changed[side][i] = true
			row := bags[side][i]
			count = 1 + int64(n)%row.Count
			switch n / 3 % 3 {
			case 0:
				ds[side].Delete(row.Tuple, count)
			case 1:
				ds[side].Modify(row.Tuple, value.Tuple{row.Tuple[0], val(v)}, count)
			default:
				ds[side].Modify(row.Tuple, value.Tuple{value.NewInt(int64(k+1) % 3), val(v)}, count)
			}
		}
	}
	if ds[0].Empty() && ds[1].Empty() {
		return
	}
	checkStreamedFold(t, fmt.Sprintf("ΔL %v, ΔR %v over L %v, R %v", ds[0].Changes, ds[1].Changes, bags[0], bags[1]),
		join, agg, bags[0], bags[1], ds[0], ds[1], exact)
}
