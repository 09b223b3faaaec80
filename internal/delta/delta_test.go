package delta_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

func smallDB() *corpus.Database {
	return corpus.NewDatabase(corpus.Config{Departments: 4, EmpsPerDept: 3, ADeptsEveryN: 2})
}

func empTuple(i, j int, salary int64) value.Tuple {
	return value.Tuple{
		value.NewString(corpus.EmpName(i, j)),
		value.NewString(corpus.DeptName(i)),
		value.NewInt(salary),
	}
}

// resultDiff computes the signed difference after - before as a
// normalized delta (the oracle for propagation tests).
func resultDiff(schema *catalog.Schema, before, after *exec.Result) *delta.Delta {
	d := delta.New(schema)
	for _, r := range after.Rows {
		d.Insert(r.Tuple, r.Count)
	}
	for _, r := range before.Rows {
		d.Delete(r.Tuple, r.Count)
	}
	return d.Normalize()
}

func sameDelta(a, b *delta.Delta) bool {
	an, bn := a.Normalize(), b.Normalize()
	index := map[string]int64{}
	for _, c := range an.Changes {
		n := c.Count
		if c.IsDelete() {
			index[c.Old.Key()] -= n
		} else {
			index[c.New.Key()] += n
		}
	}
	for _, c := range bn.Changes {
		n := c.Count
		if c.IsDelete() {
			index[c.Old.Key()] += n
		} else {
			index[c.New.Key()] -= n
		}
	}
	for _, v := range index {
		if v != 0 {
			return false
		}
	}
	return true
}

// storeProbe builds a delta.Probe answering from the current (pre-update)
// contents of a stored relation, uncharged.
func storeProbe(rel *storage.Relation, cols []string) delta.Probe {
	return func(jk value.Tuple) ([]storage.Row, error) {
		was := rel.Resident
		rel.Resident = true
		rows := rel.Lookup(cols, jk)
		rel.Resident = was
		return rows, nil
	}
}

// joinPlan compiles j against its children's schemas.
func joinPlan(t testing.TB, j *algebra.Join) *delta.JoinPlan {
	t.Helper()
	p, err := delta.CompileJoin(j, j.L.Schema(), j.R.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// aggPlan compiles a against its child's schema.
func aggPlan(t testing.TB, a *algebra.Aggregate) *delta.AggregatePlan {
	t.Helper()
	p, err := delta.CompileAggregate(a, a.Input.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestModifyKeepsNaNMoves: Modify drops a change whose tuples are Equal,
// except where a column is NaN on one side only (Equal calls a NaN equal
// to every number). Int/Float twins, ±0.0 and NaN to NaN stay no-ops.
func TestModifyKeepsNaNMoves(t *testing.T) {
	nan := value.NewFloat(math.NaN())
	for _, c := range []struct {
		name     string
		old, new value.Value
		kept     bool
	}{
		{"number to NaN", value.NewFloat(1), nan, true},
		{"NaN to number", nan, value.NewInt(0), true},
		{"NaN to NaN", nan, value.NewFloat(math.NaN()), false},
		{"Int/Float twins", value.NewInt(2), value.NewFloat(2), false},
		{"signed zeros", value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), false},
		{"equal numbers", value.NewFloat(1.5), value.NewFloat(1.5), false},
	} {
		d := delta.New(nil)
		d.Modify(value.Tuple{value.NewString("k"), c.old}, value.Tuple{value.NewString("k"), c.new}, 1)
		if kept := len(d.Changes) == 1; kept != c.kept {
			t.Errorf("%s: kept %v, want %v", c.name, kept, c.kept)
		}
	}
}

func TestSelectPropagation(t *testing.T) {
	db := smallDB()
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	sel := algebra.NewSelect(
		expr.Compare(expr.GT, expr.C("Emp.Salary"), expr.IntLit(150)), emp)

	d := delta.New(emp.Schema())
	d.Insert(empTuple(0, 9, 200), 1)                      // passes
	d.Insert(empTuple(0, 8, 100), 1)                      // fails
	d.Delete(empTuple(1, 0, 100), 1)                      // fails -> dropped
	d.Modify(empTuple(2, 0, 100), empTuple(2, 0, 300), 1) // crosses up -> insert
	d.Modify(empTuple(2, 1, 300), empTuple(2, 1, 100), 1) // crosses down -> delete
	d.Modify(empTuple(2, 2, 200), empTuple(2, 2, 300), 1) // stays in -> modify

	plan, err := delta.CompileSelect(sel, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	var ins, del, mod int
	for _, c := range out.Changes {
		switch {
		case c.IsInsert():
			ins++
		case c.IsDelete():
			del++
		default:
			mod++
		}
	}
	if ins != 2 || del != 1 || mod != 1 {
		t.Errorf("select delta shapes = +%d -%d ~%d, want +2 -1 ~1 (%v)", ins, del, mod, out.Changes)
	}
}

func TestProjectPropagationDropsNoOps(t *testing.T) {
	db := smallDB()
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	proj := algebra.NewProject([]algebra.ProjectItem{{E: expr.C("Emp.DName")}}, emp)

	d := delta.New(emp.Schema())
	// Salary-only change: projection onto DName makes it a no-op.
	d.Modify(empTuple(0, 0, 100), empTuple(0, 0, 999), 1)
	plan, err := delta.CompileProject(proj, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Empty() {
		t.Errorf("projection should drop salary-only change, got %v", out.Changes)
	}
}

func TestJoinSidePropagation(t *testing.T) {
	db := smallDB()
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	ev := exec.NewFree(db.Store)
	before, err := ev.Eval(join)
	if err != nil {
		t.Fatal(err)
	}

	d := delta.New(join.L.Schema())
	d.Insert(empTuple(0, 9, 500), 1)
	d.Delete(empTuple(1, 0, 100), 1)
	d.Modify(empTuple(2, 0, 100), empTuple(2, 0, 400), 1)

	probe := storeProbe(db.Store.MustGet("Dept"), []string{"Dept.DName"})
	got, err := joinPlan(t, join).Apply(d, nil, nil, probe)
	if err != nil {
		t.Fatal(err)
	}

	db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
	after, err := ev.Eval(join)
	if err != nil {
		t.Fatal(err)
	}
	want := resultDiff(join.Schema(), before, after)
	if !sameDelta(got, want) {
		t.Errorf("join delta mismatch:\ngot  %v\nwant %v", got.Normalize().Changes, want.Changes)
	}
}

// TestJoinSideKeyChange moves an employee between departments: the
// modification must become delete-old-matches + insert-new-matches.
func TestJoinSideKeyChange(t *testing.T) {
	db := smallDB()
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	ev := exec.NewFree(db.Store)
	before, _ := ev.Eval(join)

	old := empTuple(0, 0, 100)
	moved := old.Clone()
	moved[1] = value.NewString(corpus.DeptName(3))
	d := delta.New(join.L.Schema())
	d.Modify(old, moved, 1)

	got, err := joinPlan(t, join).Apply(d, nil, nil, storeProbe(db.Store.MustGet("Dept"), []string{"Dept.DName"}))
	if err != nil {
		t.Fatal(err)
	}
	hasMod := false
	for _, c := range got.Changes {
		if c.IsModify() {
			hasMod = true
		}
	}
	if hasMod {
		t.Error("key-changing modification must not stay a modification")
	}

	db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
	after, _ := ev.Eval(join)
	if !sameDelta(got, resultDiff(join.Schema(), before, after)) {
		t.Error("join delta with key change diverges from oracle")
	}
}

func TestJoinBothSides(t *testing.T) {
	db := smallDB()
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	ev := exec.NewFree(db.Store)
	before, _ := ev.Eval(join)

	dl := delta.New(join.L.Schema())
	dl.Insert(empTuple(0, 9, 500), 1)
	dl.Delete(empTuple(1, 1, 100), 1)

	deptSchema := join.R.Schema()
	oldDept := value.Tuple{
		value.NewString(corpus.DeptName(0)),
		value.NewString("m" + corpus.DeptName(0)),
		value.NewInt(corpus.BudgetFor(db.Config, 0)),
	}
	newDept := oldDept.Clone()
	newDept[2] = value.NewInt(42)
	dr := delta.New(deptSchema)
	dr.Modify(oldDept, newDept, 1)

	got, err := joinPlan(t, join).Apply(dl, dr,
		storeProbe(db.Store.MustGet("Emp"), []string{"Emp.DName"}),
		storeProbe(db.Store.MustGet("Dept"), []string{"Dept.DName"}))
	if err != nil {
		t.Fatal(err)
	}

	db.Store.MustGet("Emp").ApplyBatch(dl.ToMutations())
	db.Store.MustGet("Dept").ApplyBatch(dr.ToMutations())
	after, _ := ev.Eval(join)
	if !sameDelta(got, resultDiff(join.Schema(), before, after)) {
		t.Errorf("both-sides join delta diverges from oracle:\ngot %v", got.Changes)
	}
}

func TestAggregateIncrementalSumTrick(t *testing.T) {
	db := smallDB()
	sum := db.SumOfSals().(*algebra.Aggregate)
	ev := exec.NewFree(db.Store)
	before, _ := ev.Eval(sum)

	// Build the old-aggregate probe from the materialized view contents.
	oldAgg := oldAggFromResult(before, len(sum.GroupBy), map[string]int64{
		// live counts: 3 employees per department
		value.Tuple{value.NewString(corpus.DeptName(0))}.Key(): 3,
		value.Tuple{value.NewString(corpus.DeptName(1))}.Key(): 3,
		value.Tuple{value.NewString(corpus.DeptName(2))}.Key(): 3,
		value.Tuple{value.NewString(corpus.DeptName(3))}.Key(): 3,
	})

	d := delta.New(sum.Input.Schema())
	d.Modify(empTuple(0, 0, 100), empTuple(0, 0, 250), 1) // +150 to d0
	d.Insert(empTuple(1, 9, 70), 1)                       // +70 to d1
	d.Delete(empTuple(2, 0, 100), 1)                      // -100 to d2

	got, lives, err := aggPlan(t, sum).Incremental(d, oldAgg)
	live := liveMap(lives)
	if err != nil {
		t.Fatal(err)
	}

	db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
	after, _ := ev.Eval(sum)
	if !sameDelta(got, resultDiff(sum.Schema(), before, after)) {
		t.Errorf("incremental aggregate diverges from oracle:\ngot %v", got.Changes)
	}
	k0 := value.Tuple{value.NewString(corpus.DeptName(1))}.Key()
	if live[k0] != 4 {
		t.Errorf("live count for d1 = %d, want 4", live[k0])
	}
}

// TestAggregateIncrementalGroupBirthAndDeath: inserting into a fresh
// group creates it; deleting a group's last members removes it.
func TestAggregateIncrementalGroupBirthAndDeath(t *testing.T) {
	db := smallDB()
	sum := db.SumOfSals().(*algebra.Aggregate)
	ev := exec.NewFree(db.Store)
	before, _ := ev.Eval(sum)
	liveInit := map[string]int64{}
	for i := 0; i < 4; i++ {
		liveInit[value.Tuple{value.NewString(corpus.DeptName(i))}.Key()] = 3
	}
	oldAgg := oldAggFromResult(before, len(sum.GroupBy), liveInit)

	d := delta.New(sum.Input.Schema())
	// New department d9 born.
	newEmp := value.Tuple{value.NewString("fresh"), value.NewString("d9"), value.NewInt(500)}
	d.Insert(newEmp, 1)
	// Department d3 dies.
	for j := 0; j < 3; j++ {
		d.Delete(empTuple(3, j, 100), 1)
	}

	got, lives, err := aggPlan(t, sum).Incremental(d, oldAgg)
	live := liveMap(lives)
	if err != nil {
		t.Fatal(err)
	}
	db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
	after, _ := ev.Eval(sum)
	if !sameDelta(got, resultDiff(sum.Schema(), before, after)) {
		t.Errorf("group birth/death diverges from oracle:\ngot %v", got.Changes)
	}
	if live[value.Tuple{value.NewString("d9")}.Key()] != 1 {
		t.Error("new group live count should be 1")
	}
	if live[value.Tuple{value.NewString(corpus.DeptName(3))}.Key()] != 0 {
		t.Error("dead group live count should be 0")
	}
}

// oldAggFromResult adapts a materialized aggregate Result into an delta.OldAgg.
func oldAggFromResult(res *exec.Result, nGroupCols int, live map[string]int64) delta.OldAgg {
	index := map[string]value.Tuple{}
	for _, r := range res.Rows {
		index[r.Tuple[:nGroupCols].Key()] = r.Tuple
	}
	return func(gk value.Tuple) (value.Tuple, int64, bool, error) {
		t, ok := index[gk.Key()]
		if !ok {
			return nil, 0, false, nil
		}
		return t, live[gk.Key()], true, nil
	}
}

func TestAggregateFullMatchesOracle(t *testing.T) {
	db := smallDB()
	// Aggregate with AVG and MIN — not decomposable under deletes.
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	agg := algebra.NewAggregate(
		[]string{"Emp.DName"},
		[]algebra.AggSpec{
			{Func: algebra.Avg, Arg: expr.C("Emp.Salary"), As: "AvgSal"},
			{Func: algebra.Min, Arg: expr.C("Emp.Salary"), As: "MinSal"},
			{Func: algebra.Count, As: "N"},
		},
		emp,
	)
	ev := exec.NewFree(db.Store)
	before, _ := ev.Eval(agg)

	d := delta.New(emp.Schema())
	d.Modify(empTuple(0, 0, 100), empTuple(0, 0, 50), 1) // lowers min, changes avg
	d.Delete(empTuple(1, 2, 100), 1)
	d.Insert(empTuple(2, 9, 10), 1)

	if delta.Decomposable(agg.Aggs, d) {
		t.Fatal("AVG/MIN under deletes must not be decomposable")
	}

	oldGroup := func(gk value.Tuple) ([]storage.Row, error) {
		rel := db.Store.MustGet("Emp")
		was := rel.Resident
		rel.Resident = true
		rows := rel.Lookup([]string{"DName"}, gk)
		rel.Resident = was
		return rows, nil
	}
	got, _, err := aggPlan(t, agg).Full(d, oldGroup)
	if err != nil {
		t.Fatal(err)
	}
	db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
	after, _ := ev.Eval(agg)
	if !sameDelta(got, resultDiff(agg.Schema(), before, after)) {
		t.Errorf("full-group aggregate diverges from oracle:\ngot %v", got.Changes)
	}
}

// TestAggregateFullFromCoveredDelta exercises the key-based optimization
// (Q3d = 0): when the delta covers whole groups, the old group rows come
// from the delta itself and no query is posed.
func TestAggregateFullFromCoveredDelta(t *testing.T) {
	db := smallDB()
	join := algebra.NewJoin(
		[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
		algebra.Scan(db.Catalog.MustGet("Emp")),
		algebra.Scan(db.Catalog.MustGet("Dept")),
	)
	agg := algebra.NewAggregate(
		[]string{"Dept.DName", "Dept.Budget"},
		[]algebra.AggSpec{{Func: algebra.Sum, Arg: expr.C("Emp.Salary"), As: "SumSal"}},
		join,
	)
	ev := exec.NewFree(db.Store)
	beforeJoin, _ := ev.Eval(join)
	beforeAgg, _ := ev.Eval(agg)

	// A Dept budget change touches all join tuples of that department:
	// the join delta covers the whole group.
	oldDept := value.Tuple{
		value.NewString(corpus.DeptName(0)),
		value.NewString("m" + corpus.DeptName(0)),
		value.NewInt(corpus.BudgetFor(db.Config, 0)),
	}
	newDept := oldDept.Clone()
	newDept[2] = value.NewInt(77)
	dDept := delta.New(join.R.Schema())
	dDept.Modify(oldDept, newDept, 1)

	joinDelta, err := joinPlan(t, join).Apply(nil, dDept, storeProbe(db.Store.MustGet("Emp"), []string{"Emp.DName"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	oldGroup, err := delta.GroupRowsFromDelta(joinDelta, agg.GroupBy)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := aggPlan(t, agg).Full(joinDelta, oldGroup)
	if err != nil {
		t.Fatal(err)
	}

	db.Store.MustGet("Dept").ApplyBatch(dDept.ToMutations())
	afterAgg, _ := ev.Eval(agg)
	if !sameDelta(got, resultDiff(agg.Schema(), beforeAgg, afterAgg)) {
		t.Errorf("covered-delta aggregate diverges from oracle:\ngot %v\njoin delta %v (before join %d rows)",
			got.Changes, joinDelta.Changes, beforeJoin.Card())
	}
}

func TestDistinctPropagation(t *testing.T) {
	db := smallDB()
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	proj := algebra.NewProject([]algebra.ProjectItem{{E: expr.C("Emp.DName")}}, emp)
	dis := algebra.NewDistinct(proj)
	ev := exec.NewFree(db.Store)
	projRes, _ := ev.Eval(proj)
	counts := map[string]int64{}
	for _, r := range projRes.Rows {
		counts[r.Tuple.Key()] = r.Count
	}
	countOf := func(t value.Tuple) (int64, error) { return counts[t.Key()], nil }

	d := delta.New(proj.Schema())
	d.Insert(value.Tuple{value.NewString("d-new")}, 1)            // fresh -> insert
	d.Insert(value.Tuple{value.NewString(corpus.DeptName(0))}, 1) // existing -> no-op
	d.Delete(value.Tuple{value.NewString(corpus.DeptName(1))}, 1) // 3-1=2 left -> no-op
	d.Delete(value.Tuple{value.NewString(corpus.DeptName(2))}, 3) // all gone -> delete

	out, err := delta.Distinct(dis, d, countOf, &delta.Normalizer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Changes) != 2 {
		t.Fatalf("distinct delta = %v, want 1 insert + 1 delete", out.Changes)
	}
}

func TestDiffPropagation(t *testing.T) {
	db := smallDB()
	emp := algebra.Scan(db.Catalog.MustGet("Emp"))
	projL := algebra.NewProject([]algebra.ProjectItem{{E: expr.C("Emp.DName")}}, emp)
	adepts := algebra.Scan(db.Catalog.MustGet("ADepts"))
	diff := algebra.NewDiff(projL, adepts)
	ev := exec.NewFree(db.Store)
	lRes, _ := ev.Eval(projL)
	rRes, _ := ev.Eval(adepts)
	before, _ := ev.Eval(diff)

	countFrom := func(res *exec.Result) delta.CountProbe {
		idx := map[string]int64{}
		for _, r := range res.Rows {
			idx[r.Tuple.Key()] = r.Count
		}
		return func(t value.Tuple) (int64, error) { return idx[t.Key()], nil }
	}

	d := delta.New(projL.Schema())
	d.Insert(value.Tuple{value.NewString(corpus.DeptName(0))}, 2)
	d.Delete(value.Tuple{value.NewString(corpus.DeptName(1))}, 1)

	got, err := delta.DiffSide(diff, d, 0, countFrom(lRes), countFrom(rRes), &delta.Normalizer{})
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: recompute over updated left side.
	afterRows := applyTo(lRes.Rows, d)
	afterL := &exec.Result{Schema: lRes.Schema, Rows: afterRows}
	after := diffOracle(afterL, rRes)
	want := resultDiff(diff.Schema(), before, after)
	if !sameDelta(got, want) {
		t.Errorf("diff delta mismatch:\ngot  %v\nwant %v", got.Normalize().Changes, want.Changes)
	}
}

func diffOracle(l, r *exec.Result) *exec.Result {
	idx := map[string]int64{}
	for _, row := range r.Rows {
		idx[row.Tuple.Key()] += row.Count
	}
	out := &exec.Result{Schema: l.Schema}
	for _, row := range l.Rows {
		n := row.Count - idx[row.Tuple.Key()]
		if n > 0 {
			out.Rows = append(out.Rows, storage.Row{Tuple: row.Tuple, Count: n})
		}
	}
	return out
}

func TestNormalizeCancels(t *testing.T) {
	db := smallDB()
	s := algebra.Scan(db.Catalog.MustGet("Emp")).Schema()
	d := delta.New(s)
	tup := empTuple(0, 0, 100)
	d.Insert(tup, 2)
	d.Delete(tup, 2)
	if n := d.Normalize(); !n.Empty() {
		t.Errorf("insert+delete of same tuple should cancel, got %v", n.Changes)
	}
	d2 := delta.New(s)
	d2.Modify(tup, tup.Clone(), 1)
	if len(d2.Changes) != 0 {
		t.Error("no-op modify should be dropped at construction")
	}
}

// TestRandomizedJoinAggPipeline drives random update batches through
// Join then Aggregate propagation and checks against full recomputation.
func TestRandomizedJoinAggPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
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
		beforeAgg, _ := ev.Eval(agg)

		// Random employee-side delta.
		d := delta.New(join.L.Schema())
		for k := 0; k < 1+rng.Intn(3); k++ {
			i, j := rng.Intn(3), rng.Intn(2)
			switch rng.Intn(3) {
			case 0:
				d.Insert(value.Tuple{
					value.NewString(corpus.EmpName(i, 10+k)),
					value.NewString(corpus.DeptName(i)),
					value.NewInt(int64(10 * (k + 1))),
				}, 1)
			case 1:
				d.Delete(empTuple(i, j, corpus.BaseSalary), 1)
			default:
				d.Modify(empTuple(i, j, corpus.BaseSalary),
					empTuple(i, j, corpus.BaseSalary+int64(rng.Intn(50))), 1)
			}
		}

		joinDelta, err := joinPlan(t, join).Apply(d, nil, nil, storeProbe(db.Store.MustGet("Dept"), []string{"Dept.DName"}))
		if err != nil {
			t.Fatal(err)
		}
		oldGroup := func(gk value.Tuple) ([]storage.Row, error) {
			// Query the join for the group's pre-update rows: employees
			// of the department joined with the department tuple.
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

		db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
		afterAgg, _ := ev.Eval(agg)
		want := resultDiff(agg.Schema(), beforeAgg, afterAgg)
		if !sameDelta(aggDelta, want) {
			t.Fatalf("trial %d: pipeline diverges from oracle\ndelta in: %v\ngot  %v\nwant %v",
				trial, d.Changes, aggDelta.Normalize().Changes, want.Changes)
		}
	}
}

// TestNormalizeProperties: Normalize is idempotent and applyTo is
// invariant under it (quick-check over random deltas).
func TestNormalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := smallDB()
	schema := algebra.Scan(db.Catalog.MustGet("Emp")).Schema()
	for trial := 0; trial < 200; trial++ {
		d := delta.New(schema)
		for i := 0; i < rng.Intn(6); i++ {
			a := empTuple(rng.Intn(3), rng.Intn(3), int64(100*(1+rng.Intn(3))))
			b := empTuple(rng.Intn(3), rng.Intn(3), int64(100*(1+rng.Intn(3))))
			switch rng.Intn(3) {
			case 0:
				d.Insert(a, int64(1+rng.Intn(2)))
			case 1:
				d.Delete(a, int64(1+rng.Intn(2)))
			default:
				d.Modify(a, b, 1)
			}
		}
		n1 := d.Normalize()
		n2 := n1.Normalize()
		if !sameDelta(n1, n2) {
			t.Fatalf("Normalize not idempotent: %v vs %v", n1.Changes, n2.Changes)
		}
		// applyTo agrees on the raw and normalized forms for a random
		// starting bag.
		var rows []storage.Row
		for i := 0; i < 3; i++ {
			rows = append(rows, storage.Row{
				Tuple: empTuple(i, 0, 100), Count: int64(1 + rng.Intn(3)),
			})
		}
		after1 := applyTo(rows, d)
		after2 := applyTo(rows, n1)
		if !bagsEqual(after1, after2) {
			t.Fatalf("applyTo not invariant under Normalize:\nraw %v\nnorm %v", after1, after2)
		}
	}
}

func bagsEqual(a, b []storage.Row) bool {
	idx := map[string]int64{}
	for _, r := range a {
		idx[r.Tuple.Key()] += r.Count
	}
	for _, r := range b {
		idx[r.Tuple.Key()] -= r.Count
	}
	for _, n := range idx {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestGroupAndTupleCounts: signed bookkeeping helpers.
func TestGroupAndTupleCounts(t *testing.T) {
	db := smallDB()
	schema := algebra.Scan(db.Catalog.MustGet("Emp")).Schema()
	d := delta.New(schema)
	d.Insert(empTuple(0, 9, 100), 2)
	d.Delete(empTuple(0, 0, 100), 1)
	d.Modify(empTuple(1, 0, 100), empTuple(1, 0, 200), 1)

	gc, err := d.GroupCounts([]string{"Emp.DName"})
	if err != nil {
		t.Fatal(err)
	}
	d0 := value.Tuple{value.NewString(corpus.DeptName(0))}.Key()
	d1 := value.Tuple{value.NewString(corpus.DeptName(1))}.Key()
	if gc[d0] != 1 { // +2 -1
		t.Errorf("d0 group delta = %d, want 1", gc[d0])
	}
	if gc[d1] != 0 { // modify: -1 +1
		t.Errorf("d1 group delta = %d, want 0", gc[d1])
	}

	tc := d.TupleCounts()
	if tc[empTuple(0, 9, 100).Key()] != 2 {
		t.Error("insert count wrong")
	}
	if tc[empTuple(1, 0, 100).Key()] != -1 || tc[empTuple(1, 0, 200).Key()] != 1 {
		t.Error("modify split wrong")
	}
}

// TestNormalizerNetsByEncoding holds the Normalizer's tuple table to a
// netting keyed by the tuple's encoding (Tuple.Key): over random deltas
// of 0 to 300 changes drawn from values that compare equal without
// encoding alike — Int 1 and Float 1.0, +0.0 and −0.0 — and from NULL,
// strings and booleans, the net insertions and deletions are the
// reference's, tuple for tuple and in first-seen order, and every change
// is kept apart from the ones that only compare equal to it.
func TestNormalizerNetsByEncoding(t *testing.T) {
	schema := catalog.NewSchema(
		catalog.Column{Name: "A", Type: value.Float},
		catalog.Column{Name: "B", Type: value.String},
	)
	as := []value.Value{
		value.NewInt(1), value.NewFloat(1), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewNull(), value.NewBool(true), value.NewBool(false), value.NewInt(0),
	}
	rng := rand.New(rand.NewSource(41))
	var nz delta.Normalizer
	for trial := 0; trial < 300; trial++ {
		tuple := func() value.Tuple {
			return value.Tuple{as[rng.Intn(len(as))], value.NewString(fmt.Sprint("s", rng.Intn(1+trial%12)))}
		}
		d := delta.New(schema)
		for i, n := 0, rng.Intn(1+trial); i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				d.Insert(tuple(), int64(1+rng.Intn(3)))
			case 1:
				d.Delete(tuple(), int64(1+rng.Intn(3)))
			default:
				d.Modify(tuple(), tuple(), 1)
			}
		}
		var order []string
		net, first := map[string]int64{}, map[string]value.Tuple{}
		add := func(tu value.Tuple, n int64) {
			k := tu.Key()
			if _, ok := first[k]; !ok {
				order = append(order, k)
				first[k] = tu
			}
			net[k] += n
		}
		for _, c := range d.Changes {
			if c.Old != nil {
				add(c.Old, -c.Count)
			}
			if c.New != nil {
				add(c.New, c.Count)
			}
		}
		var want []string
		for _, k := range order {
			if n := net[k]; n != 0 {
				want = append(want, fmt.Sprintf("%q %+d", first[k].Key(), n))
			}
		}
		var got []string
		for _, c := range nz.Normalize(d).Changes {
			switch {
			case c.IsInsert():
				got = append(got, fmt.Sprintf("%q %+d", c.New.Key(), c.Count))
			case c.IsDelete():
				got = append(got, fmt.Sprintf("%q %+d", c.Old.Key(), -c.Count))
			default:
				t.Fatalf("trial %d: Normalize kept a modification %v", trial, c)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Normalize = %v\nby encoding = %v", trial, got, want)
		}
	}
}
