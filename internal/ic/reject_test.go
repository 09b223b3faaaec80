package ic_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/ic"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// bag renders rows as a sorted multiset of tuple keys.
func bag(rows []storage.Row) []string {
	var out []string
	for _, r := range rows {
		for n := int64(0); n < r.Count; n++ {
			out = append(out, fmt.Sprintf("%x", r.Tuple.Key()))
		}
	}
	sort.Strings(out)
	return out
}

// image renders every relation in the store, base and view, row by row
// in stored order: two images are equal iff nothing was written.
func image(st *storage.Store) map[string][]string {
	out := map[string][]string{}
	for _, name := range st.Names() {
		for _, r := range st.MustGet(name).Snapshot() {
			out[name] = append(out[name], fmt.Sprintf("%x*%d", r.Tuple.Key(), r.Count))
		}
	}
	return out
}

// oracleAfter copies the base relations, applies the transaction to the
// copy and returns it: the database the transaction would leave.
func oracleAfter(db *corpus.Database, updates map[string]*delta.Delta) *storage.Store {
	st := storage.NewStore()
	for _, name := range db.Catalog.Names() {
		src := db.Store.MustGet(name)
		r, err := st.Create(src.Def)
		if err != nil {
			panic(err)
		}
		r.Load(src.Snapshot())
		if d := updates[name]; d != nil {
			r.ApplyBatch(d.ToMutations())
		}
	}
	return st
}

// corpStep draws one random corporate transaction valid against db: a
// salary change, an over-budget raise, a hire (now and then into a
// department with no Dept row, or far over budget), a fire or a budget
// change. ok is false when the drawn employee is already gone.
func corpStep(rng *rand.Rand, db *corpus.Database, step int) (ty *txn.Type, updates map[string]*delta.Delta, ok bool) {
	cfg := db.Config
	i, j := rng.Intn(cfg.Departments), rng.Intn(cfg.EmpsPerDept)
	emp := func(d *delta.Delta, err error) (*txn.Type, map[string]*delta.Delta, bool) {
		return txn.PaperTypes()[0], map[string]*delta.Delta{"Emp": d}, err == nil
	}
	switch rng.Intn(5) {
	case 0:
		return emp(db.EmpSalaryDelta(i, j, int64(50+rng.Intn(150))))
	case 1:
		return emp(db.EmpSalaryDelta(i, j, corpus.BudgetFor(cfg, i)+int64(rng.Intn(100))))
	case 2:
		dept := corpus.DeptName(i)
		if rng.Intn(4) == 0 {
			dept = corpus.DeptName(cfg.Departments + i)
		}
		sal := int64(50 + rng.Intn(100))
		if rng.Intn(3) == 0 {
			sal = 1000
		}
		hire := &txn.Type{Name: "+Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Insert, Size: 1}}}
		return hire, map[string]*delta.Delta{"Emp": db.EmpInsertDelta(fmt.Sprintf("h%04d", step), dept, sal)}, true
	case 3:
		d, err := db.EmpDeleteDelta(i, j)
		fire := &txn.Type{Name: "-Emp", Weight: 1, Updates: []txn.RelUpdate{{Rel: "Emp", Kind: txn.Delete, Size: 1}}}
		return fire, map[string]*delta.Delta{"Emp": d}, err == nil
	default:
		d, err := db.DeptBudgetDelta(i, int64(200+rng.Intn(1000)))
		return txn.PaperTypes()[1], map[string]*delta.Delta{"Dept": d}, err == nil
	}
}

// TestRejectVerdictDifferential runs random corporate streams, as
// windows of one, through a Reject-mode checker and against an oracle
// that copies the base relations, applies the transaction and
// recomputes the assertion from scratch. After every transaction the
// verdict, the violating rows, every view and Drift must match; a
// rejected transaction must leave every relation byte-identical and
// charge nothing beyond its propagation's queries. The streams run
// under four view sets, over a clean database and over one that
// already violates the assertion.
func TestRejectVerdictDifferential(t *testing.T) {
	steps := 80
	if testing.Short() {
		steps = 25
	}
	rejected, accepted := 0, 0
	for _, violating := range []bool{false, true} {
		for set := 0; set < 4; set++ {
			db := corpus.NewDatabase(corpus.Config{Departments: 6, EmpsPerDept: 3})
			if violating {
				d, err := db.EmpSalaryDelta(0, 0, 5000)
				if err != nil {
					t.Fatal(err)
				}
				db.Store.MustGet("Emp").ApplyBatch(d.ToMutations())
			}
			d, err := dag.FromTree(db.ProblemDept())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Expand(rules.Default(), 200); err != nil {
				t.Fatal(err)
			}
			vs := tracks.RootSet(d)
			join := d.FindEq(algebra.NewJoin(
				[]algebra.JoinCond{{Left: "Emp.DName", Right: "Dept.DName"}},
				algebra.Scan(db.Catalog.MustGet("Emp")), algebra.Scan(db.Catalog.MustGet("Dept"))))
			for k, e := range []*dag.EqNode{d.FindEq(db.SumOfSals()), join} {
				if set&(1<<k) != 0 {
					vs[e.ID] = true
				}
			}
			m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ic.New(m, ic.Reject, ic.Assertion{Name: "DeptConstraint", View: d.Root})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(7 + set)))
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("violating=%v set=%s step %d", violating, vs.Key(), step)
				ty, updates, ok := corpStep(rng, db, step)
				if !ok {
					continue
				}
				post := oracleAfter(db, updates)
				want, err := exec.NewFree(post).Eval(d.RepTree(d.Root))
				if err != nil {
					t.Fatal(err)
				}
				wantReject := len(want.Rows) > 0
				before, io0 := image(db.Store), db.Store.IO.Snapshot()

				out, err := c.Execute(ty, updates)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if out.RolledBack != wantReject {
					t.Fatalf("%s: rolled back %v, the oracle says %v", label, out.RolledBack, wantReject)
				}
				var got []storage.Row
				for _, v := range out.Violations {
					got = append(got, v.Rows...)
				}
				if wantReject && !reflect.DeepEqual(bag(got), bag(want.Rows)) {
					t.Fatalf("%s: violations %v, the oracle %v", label, bag(got), bag(want.Rows))
				}
				if !wantReject && len(out.Violations) != 0 {
					t.Fatalf("%s: accepted with violations %+v", label, out.Violations)
				}
				rep := out.Report
				if out.RolledBack {
					rejected++
					if after := image(db.Store); !reflect.DeepEqual(after, before) {
						t.Fatalf("%s: a rejected transaction wrote to storage", label)
					}
					if used := db.Store.IO.Snapshot().Sub(io0); used != rep.QueryIO {
						t.Fatalf("%s: rejected transaction charged %v, its queries %v", label, used, rep.QueryIO)
					}
					if rep.BaseIO.Total()+rep.ViewIO.Total()+rep.RootIO.Total() != 0 {
						t.Fatalf("%s: rejected transaction reports apply I/O %v %v %v", label, rep.BaseIO, rep.ViewIO, rep.RootIO)
					}
				} else {
					accepted++
					for _, name := range db.Catalog.Names() {
						if a, b := bag(db.Store.MustGet(name).ScanFree()), bag(post.MustGet(name).ScanFree()); !reflect.DeepEqual(a, b) {
							t.Fatalf("%s: base relation %s differs from the oracle", label, name)
						}
					}
				}
				for _, e := range d.NonLeafEqs() {
					if !vs[e.ID] {
						continue
					}
					if out.RolledBack {
						post = db.Store
					}
					want, err := exec.NewFree(post).Eval(d.RepTree(e))
					if err != nil {
						t.Fatal(err)
					}
					if a, b := bag(m.Contents(e)), bag(want.Rows); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: view %s holds %v, the oracle %v", label, e, a, b)
					}
					if drift, err := m.Drift(e); err != nil || drift != "" {
						t.Fatalf("%s: view %s drifted: %q %v", label, e, drift, err)
					}
				}
			}
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("%d rejected, %d accepted: the stream did not exercise both verdicts", rejected, accepted)
	}
	t.Logf("%d transactions rejected, %d accepted", rejected, accepted)
}
