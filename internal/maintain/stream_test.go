package maintain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// The streaming property: a join that streams its output into the
// aggregate above it, holding no delta and netting nothing, is invisible
// everywhere it can be looked for. Two engines must agree after every
// window —
//
//   - streamed: the default pipeline;
//   - netted:   NetAll, which keeps every join delta and nets it when both
//     inputs changed, as JoinPlan.ApplyBoth did before the join streamed;
//
// on the contents of every materialized node, on each of the four page
// I/O parts of the window, and with full recomputation (Drift).

// assertWindowsAgree compares the two engines after one window and
// reports whether a join on the streamed engine's track held no delta.
func assertWindowsAgree(t *testing.T, label string, streamed, netted *mirror, rs, rn *maintain.BatchReport) (streams bool) {
	t.Helper()
	assertMirrorsAgree(t, label, streamed, netted)
	for _, io := range []struct {
		part string
		s, n storage.IOCounter
	}{{"query", rs.QueryIO, rn.QueryIO}, {"view", rs.ViewIO, rn.ViewIO}, {"root", rs.RootIO, rn.RootIO}, {"base", rs.BaseIO, rn.BaseIO}} {
		if io.s != io.n {
			t.Fatalf("%s: %s I/O streamed %+v, netted %+v", label, io.part, io.s, io.n)
		}
	}
	for _, e := range rs.Track.Order {
		if _, held := rs.Deltas[e.ID]; !held {
			streams = true
		} else if _, ok := rn.Deltas[e.ID]; !ok {
			t.Fatalf("%s: the netted engine holds no delta for %s", label, e)
		}
	}
	return streams
}

// TestStreamedVsNettedRandom runs the property over random_test.go's
// generator: random views (half of them SUM/COUNT aggregates over one or
// two joins), random view sets — so the joins are materialized in some
// trials and stream in others — and random windows that change Emp,
// Dept and ADepts together. Every third window is one transaction that
// updates two relations at once.
func TestStreamedVsNettedRandom(t *testing.T) {
	const trials, shortTrials = 60, 10
	streamedWindows, bothChanged := 0, 0
	factored := obs.C("delta.fold.factored_changes")
	factored0 := factored.Value()
	exercised := func() bool {
		return streamedWindows > 0 && bothChanged > 0 && factored.Value() > factored0
	}
	for trial := 0; trial < trials; trial++ {
		// A short run draws at least shortTrials trials, then stops as
		// soon as the property has been exercised.
		if testing.Short() && trial >= shortTrials && exercised() {
			break
		}
		seed := int64(52000 + trial)
		gen := buildMirror(t, seed) // advances txn by txn, so drawn windows compose
		streamed := buildMirror(t, seed)
		netted := buildMirror(t, seed)
		netted.m.NetAll()
		rng := rand.New(rand.NewSource(seed*17 + 3))
		steps := 0
		// draw returns the next transaction that is valid against the
		// generator's database and passes accept, and applies it there.
		draw := func(accept func(txn.Transaction) bool) txn.Transaction {
			for {
				ty, updates := corpus.RandomTxn(rng, gen.db, gen.cfg, trial*1000+steps)
				steps++
				tx := txn.Transaction{Type: ty, Updates: updates}
				if ty == nil || !accept(tx) {
					continue
				}
				if _, err := gen.m.Apply(ty, updates); err != nil {
					t.Fatalf("trial %d: generator %s: %v", trial, ty.Name, err)
				}
				return tx
			}
		}
		any := func(txn.Transaction) bool { return true }
		for w, size := range []int{2, 16, 0, 5, 8, 0} {
			var window []txn.Transaction
			for len(window) < size {
				window = append(window, draw(any))
			}
			if size == 0 { // one transaction over two relations
				a := draw(any)
				b := draw(func(b txn.Transaction) bool { return b.Type.Updates[0].Rel != a.Type.Updates[0].Rel })
				ra, rb := a.Type.Updates[0], b.Type.Updates[0]
				window = []txn.Transaction{{
					Type:    &txn.Type{Name: a.Type.Name + b.Type.Name, Weight: 1, Updates: []txn.RelUpdate{ra, rb}},
					Updates: map[string]*delta.Delta{ra.Rel: a.Updates[ra.Rel], rb.Rel: b.Updates[rb.Rel]},
				}}
			}
			rs, err := streamed.m.ApplyBatch(window)
			if err != nil {
				t.Fatalf("trial %d window %d streamed: %v", trial, w, err)
			}
			rn, err := netted.m.ApplyBatch(window)
			if err != nil {
				t.Fatalf("trial %d window %d netted: %v", trial, w, err)
			}
			label := fmt.Sprintf("trial %d window %d (%d txns, %s)", trial, w, len(window), rs.Type.Name)
			if assertWindowsAgree(t, label, streamed, netted, rs, rn) {
				streamedWindows++
				if len(rs.Merged) > 1 {
					bothChanged++
				}
			}
		}
	}
	n := factored.Value() - factored0
	if !exercised() {
		t.Fatalf("%d windows streamed, %d of them with more than one relation changed, %d changes folded by side: the property was not exercised", streamedWindows, bothChanged, n)
	}
	t.Logf("%d windows streamed a join into its aggregate, %d of them with more than one relation changed; %d changes folded by side", streamedWindows, bothChanged, n)
}

// fig5Nodes finds Figure 5's aggregate node, the three-way join under it,
// the R ⋈ S join under that and the factorized partial over R ⋈ S (N5,
// N4, N2 and N10 as cmd/mvopt renders the SQL DAG). It used to take the
// last aggregate node it met, which since the factorized push is a
// partial, not the view's aggregate.
func fig5Nodes(t *testing.T, d *dag.DAG) (agg, rst, rs, partial *dag.EqNode) {
	t.Helper()
	// The root selects from the aggregate, whose first operation is the
	// one the view was written with: over R⋈S⋈T, itself R⋈S joined to T.
	agg = d.Root.Ops[0].Children[0]
	rst = agg.Ops[0].Children[0]
	rs = rst.Ops[0].Children[0]
	for _, e := range d.NonLeafEqs() {
		if a, ok := e.Ops[0].Template.(*algebra.Aggregate); ok && e.Ops[0].Children[0] == rs && len(a.Aggs) == 2 {
			partial = e // γ[S.Item; SUM(S.Quantity), COUNT(*)](R⋈S)
		}
	}
	if agg.Ops[0].Kind() != algebra.KindAggregate || rs.Ops[0].Children[0].BaseRel != "R" || partial == nil {
		t.Fatalf("Figure 5 DAG lacks the aggregate, R⋈S⋈T, R⋈S or factorized partial node:\n%s", d.Render())
	}
	return agg, rst, rs, partial
}

// TestStreamedVsNettedFigure5 runs the property on the benchmark's shape
// — price changes on T beside sales inserted into and deleted from S, so
// R⋈S⋈T sees both inputs change — under the view set {aggregate, root},
// where the join streams, under view sets that materialize the three-way
// join or R ⋈ S, where it must not, and under the optimizer's pick since
// the factorized push, {partial, root}, where R ⋈ S streams into the
// partial γ[S.Item; SUM(Quantity), COUNT(*)]. Sets are named as cmd/mvopt
// names the nodes of testdata/fig5_skew.sql. The last window is one
// transaction that reprices an item and sells it.
func TestStreamedVsNettedFigure5(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 12, RPerItem: 3, SPerItem: 4}
	sets := []struct {
		name    string
		extra   func(agg, rst, rs, partial *dag.EqNode) []*dag.EqNode
		streams bool
	}{
		{"{N5,N7}", func(agg, rst, rs, partial *dag.EqNode) []*dag.EqNode { return []*dag.EqNode{agg} }, true},
		{"{N4,N5,N7}", func(agg, rst, rs, partial *dag.EqNode) []*dag.EqNode { return []*dag.EqNode{rst, agg} }, false},
		{"{N2,N5,N7}", func(agg, rst, rs, partial *dag.EqNode) []*dag.EqNode { return []*dag.EqNode{rs, agg} }, true},
		{"{N2,N4,N7}", func(agg, rst, rs, partial *dag.EqNode) []*dag.EqNode { return []*dag.EqNode{rs, rst} }, false},
		{"{N7,N10}", func(agg, rst, rs, partial *dag.EqNode) []*dag.EqNode { return []*dag.EqNode{partial} }, true},
	}
	for _, set := range sets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			build := func() *mirror {
				db := corpus.Figure5Database(cfg)
				d, err := dag.FromTree(db.Figure5View(150))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.Expand(rules.Default(), 400); err != nil {
					t.Fatal(err)
				}
				vs := tracks.RootSet(d)
				checked := []*dag.EqNode{d.Root}
				for _, e := range set.extra(fig5Nodes(t, d)) {
					vs[e.ID] = true
					checked = append(checked, e)
				}
				m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
				if err != nil {
					t.Fatal(err)
				}
				return &mirror{db: db, m: m, checked: checked}
			}
			streamed, netted := build(), build()
			netted.m.NetAll()
			stream := newFig5Stream(streamed.db, 4)
			sSchema := streamed.db.Catalog.MustGet("S").Schema
			// The stream only inserts sales; every other one becomes the
			// deletion of the oldest sale inserted so far instead.
			var sold []value.Tuple
			churn := 0
			delS := &txn.Type{Name: "-S", Weight: 1, Updates: []txn.RelUpdate{{Rel: "S", Kind: txn.Delete, Size: 1}}}
			next := func() txn.Transaction {
				tx := stream.next()
				if d := tx.Updates["S"]; d != nil {
					if churn++; churn%2 == 0 {
						d = delta.New(sSchema)
						d.Delete(sold[0], 1)
						sold = sold[1:]
						return txn.Transaction{Type: delS, Updates: map[string]*delta.Delta{"S": d}}
					}
					sold = append(sold, d.Changes[0].New)
				}
				return tx
			}
			anyStreamed := false
			factored := obs.C("delta.fold.factored_changes")
			factored0 := factored.Value()
			for w, size := range []int{16, 64, 1, 5, 16, 0} {
				window := make([]txn.Transaction, size)
				for i := range window {
					window[i] = next()
				}
				if size == 0 {
					// One transaction over two relations: five stream steps (four
					// price changes on distinct items, one sale) as one unit.
					one := txn.Transaction{Type: &txn.Type{Name: ">T±S", Weight: 1}, Updates: map[string]*delta.Delta{
						"S": delta.New(sSchema), "T": delta.New(streamed.db.Catalog.MustGet("T").Schema)}}
					for i := 0; i < 5; i++ {
						tx := next()
						u := tx.Type.Updates[0]
						one.Updates[u.Rel].Changes = append(one.Updates[u.Rel].Changes, tx.Updates[u.Rel].Changes...)
						if _, ok := one.Type.UpdateOf(u.Rel); !ok {
							one.Type.Updates = append(one.Type.Updates, u)
						}
					}
					window = []txn.Transaction{one}
				}
				rs, err := streamed.m.ApplyBatch(window)
				if err != nil {
					t.Fatalf("window %d streamed: %v", w, err)
				}
				rn, err := netted.m.ApplyBatch(window)
				if err != nil {
					t.Fatalf("window %d netted: %v", w, err)
				}
				label := fmt.Sprintf("window %d (%d txns, %s)", w, len(window), rs.Type.Name)
				if assertWindowsAgree(t, label, streamed, netted, rs, rn) {
					anyStreamed = true
				}
			}
			if anyStreamed != set.streams {
				t.Errorf("a join streamed into the aggregate: %v, want %v", anyStreamed, set.streams)
			}
			// Every stream here is Int SUM(Quantity*Price) BY T.Item over an
			// equi-join on Item: the changes of either side fold by side.
			if n := factored.Value() - factored0; (n > 0) != set.streams {
				t.Errorf("%d changes folded by side, want some iff the join streams (%v)", n, set.streams)
			}
		})
	}
}

// TestMinMaxOverJoinDecidesOnNetDelta is the Decomposable flip: a window
// hires into a department whose Dept row it also deletes, beside a hire
// elsewhere. Inserts on one join input and a delete on the other: the
// join's terms hold +t and −t for the doomed pair, the net delta is one
// insertion. MIN/MAX may be maintained from stored values only for an
// insert-only delta, so the decision must see the net one — deciding on
// the terms would take the full-group path and charge a group query.
func TestMinMaxOverJoinDecidesOnNetDelta(t *testing.T) {
	build := func() (*mirror, *dag.EqNode) {
		cfg := corpus.Config{Departments: 3, EmpsPerDept: 1}
		db := corpus.NewDatabase(cfg)
		join := algebra.NewJoin(
			[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
			algebra.Scan(db.Catalog.MustGet("Emp")), algebra.Scan(db.Catalog.MustGet("Dept")))
		view := algebra.NewAggregate([]string{"Dept.DName"}, []algebra.AggSpec{
			{Func: algebra.Min, Arg: expr.C("Emp.Salary"), As: "Lo"},
			{Func: algebra.Max, Arg: expr.C("Dept.Budget"), As: "Hi"},
		}, join)
		d, err := dag.FromTree(view)
		if err != nil {
			t.Fatal(err)
		}
		m, err := maintain.New(d, db.Store, cost.PageIO{}, tracks.RootSet(d))
		if err != nil {
			t.Fatal(err)
		}
		return &mirror{cfg: cfg, db: db, m: m, checked: []*dag.EqNode{d.Root}}, d.FindEq(join)
	}
	streamed, joinEq := build()
	netted, _ := build()
	netted.m.NetAll()

	ins := &txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
	del := &txn.Type{Name: "-Dept", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Dept", Kind: txn.Delete, Size: 1}}}
	fire, err := streamed.db.EmpDeleteDelta(0, 0) // department 0 keeps its Dept row and no employee
	if err != nil {
		t.Fatal(err)
	}
	dept := streamed.db.Store.MustGet("Dept")
	dept.Resident = true
	rows := dept.Lookup([]string{"DName"}, value.Tuple{value.NewString(corpus.DeptName(0))})
	dept.Resident = false
	drop := delta.New(dept.Def.Schema)
	drop.Delete(rows[0].Tuple.Clone(), 1)
	windows := [][]txn.Transaction{
		{{Type: &txn.Type{Name: "-Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}},
			Updates: map[string]*delta.Delta{"Emp": fire}}},
		{
			{Type: ins, Updates: map[string]*delta.Delta{"Emp": streamed.db.EmpInsertDelta("doomed", corpus.DeptName(0), 70)}},
			{Type: del, Updates: map[string]*delta.Delta{"Dept": drop}},
			{Type: ins, Updates: map[string]*delta.Delta{"Emp": streamed.db.EmpInsertDelta("kept", corpus.DeptName(1), 80)}},
		},
	}
	for w, window := range windows {
		rs, err := streamed.m.ApplyBatch(window)
		if err != nil {
			t.Fatalf("window %d streamed: %v", w, err)
		}
		rn, err := netted.m.ApplyBatch(window)
		if err != nil {
			t.Fatalf("window %d netted: %v", w, err)
		}
		if assertWindowsAgree(t, fmt.Sprintf("window %d", w), streamed, netted, rs, rn) {
			t.Fatalf("window %d: a join streamed into a MIN/MAX aggregate", w)
		}
		if w == 0 {
			continue
		}
		jd := rs.Deltas[joinEq.ID]
		if len(jd.Changes) != 1 || !jd.Changes[0].IsInsert() {
			t.Errorf("the join's delta is %v, want the one net insertion", jd.Changes)
		}
		if rd := streamed.m.StreamsInto(rs.Track, joinEq); rd != nil {
			t.Errorf("StreamsInto = %s for a MIN/MAX aggregate", rd)
		}
	}
}

// TestRejectedWindowDropsPendingCounts: a rejected window is propagated
// but never applied, so the live counts its aggregate step computed go
// with it. A hire that takes its department's SUM over a guarded
// threshold is rejected; then, accepted, a hire into a department with
// no Dept row (the join adds no row, so the SUM's step computes no live
// counts of its own) and the first department's only firing. Run with
// the join streaming into the SUM, whose live counts then exist only in
// the fold, and with the join materialized.
func TestRejectedWindowDropsPendingCounts(t *testing.T) {
	for _, materialized := range []bool{false, true} {
		t.Run(fmt.Sprintf("join materialized=%v", materialized), func(t *testing.T) {
			db := corpus.NewDatabase(corpus.Config{Departments: 3, EmpsPerDept: 1})
			join := algebra.NewJoin(
				[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
				algebra.Scan(db.Catalog.MustGet("Emp")), algebra.Scan(db.Catalog.MustGet("Dept")))
			sum := algebra.NewAggregate([]string{"Dept.DName"}, []algebra.AggSpec{
				{Func: algebra.Sum, Arg: expr.C("Emp.Salary"), As: "S"},
			}, join)
			over := algebra.NewSelect(expr.Compare(expr.GT, expr.C("S"), expr.IntLit(1000)), sum)
			d, err := dag.FromTrees(sum, over)
			if err != nil {
				t.Fatal(err)
			}
			vs := tracks.RootSet(d)
			joinEq, guard := d.FindEq(join), d.FindEq(over)
			vs[joinEq.ID] = materialized
			m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
			if err != nil {
				t.Fatal(err)
			}
			m.Guards = []*dag.EqNode{guard}
			hooked := 0
			m.SetWindowHook(func(maintain.WindowUpdate) { hooked++ })
			hire := &txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
			fire := &txn.Type{Name: "-Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}
			check := func(step string, rep *maintain.BatchReport, reject bool) {
				t.Helper()
				if rep.Rejected != reject {
					t.Fatalf("%s: rejected %v, want %v", step, rep.Rejected, reject)
				}
				for _, e := range d.Roots {
					if drift, err := m.Drift(e); err != nil || drift != "" {
						t.Fatalf("%s: %s drifted: %q %v", step, e, drift, err)
					}
				}
			}

			rep, err := m.Apply(hire, map[string]*delta.Delta{"Emp": db.EmpInsertDelta("temp", corpus.DeptName(0), 5000)})
			if err != nil {
				t.Fatal(err)
			}
			if _, held := rep.Deltas[joinEq.ID]; held != materialized {
				t.Fatalf("join delta held %v with the join materialized %v", held, materialized)
			}
			check("over-threshold hire", rep, true)
			if hooked != 0 || rep.BaseIO.Total()+rep.ViewIO.Total()+rep.RootIO.Total() != 0 {
				t.Fatalf("the rejected hire was applied: %d hook calls, base %v view %v root %v", hooked, rep.BaseIO, rep.ViewIO, rep.RootIO)
			}
			rep, err = m.Apply(hire, map[string]*delta.Delta{"Emp": db.EmpInsertDelta("stray", "nodept", 50)})
			if err != nil {
				t.Fatal(err)
			}
			check("hire with no department", rep, false)
			gone, err := db.EmpDeleteDelta(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			rep, err = m.Apply(fire, map[string]*delta.Delta{"Emp": gone})
			if err != nil {
				t.Fatal(err)
			}
			check("the department's last firing", rep, false)
			if rows := m.Contents(d.FindEq(sum)); len(rows) != 2 {
				t.Fatalf("SUM view holds %d groups after the first department emptied, want 2", len(rows))
			}
		})
	}
}
