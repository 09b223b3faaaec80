package mvmaint_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	mvmaint "repro"
	"repro/internal/delta"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

const equiJoinDDL = `
CREATE TABLE A (AK VARCHAR(10) PRIMARY KEY, X INT);
CREATE TABLE B (BK VARCHAR(10) PRIMARY KEY, Y FLOAT);
CREATE INDEX a_x ON A (X);
CREATE INDEX b_y ON B (Y);
`

// TestEquiJoinAcrossIntAndFloat: an equi-join matches keys by
// value.Equal, as a selection does, so an INT 1 joins a FLOAT 1.0 in an
// ad hoc query as well as in a WHERE against a literal.
func TestEquiJoinAcrossIntAndFloat(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(equiJoinDDL + `
INSERT INTO A VALUES ('a1', 1), ('a2', 2);
INSERT INTO B VALUES ('b1', 1.0), ('b3', 3.5);
`)
	str := value.NewString
	for _, c := range []struct {
		sql  string
		want value.Tuple
	}{
		{"SELECT AK FROM A WHERE X = 1.0", value.Tuple{str("a1")}},
		{"SELECT AK, BK FROM A, B WHERE A.X = B.Y", value.Tuple{str("a1"), str("b1")}},
	} {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got, want := fmt.Sprint(sortedRows(res.Rows)), fmt.Sprint(sortedRows([]storage.Row{{Tuple: c.want, Count: 1}}))
		if got != want {
			t.Errorf("%s = %s, want %s", c.sql, got, want)
		}
	}
}

// TestEquiJoinViewAcrossKinds maintains views over A and B through
// windows whose Go-API deltas draw join keys from Int and Float values
// that compare equal across kinds, +0.0 and −0.0, and NULL, through the
// optimizer's view set and through the roots alone. Both sides are
// indexed on their join column, so the probes go through storage's
// hash buckets. After every window J equals a nested-loop join of the
// stored base relations under value.Equal (the engine's join semantics,
// under which NULL joins NULL), K equals the count of that join grouped
// by B.Y, and every materialized view equals recomputation.
//
//   - int-float (A.X INT, B.Y FLOAT): the join matches across kinds, K
//     and the DISTINCT view D keep +0.0 and −0.0 apart (a count probe
//     for one must not count the other), and so does the difference E.
//   - int-int (both INT): a Float key is stored as its column's Int, so
//     K, which the aggregate push rewrites below the join, never meets
//     one join key in two groups.
func TestEquiJoinViewAcrossKinds(t *testing.T) {
	keys := []value.Value{
		value.NewInt(1), value.NewFloat(1), value.NewInt(2), value.NewFloat(2),
		value.NewFloat(2.5), value.NewInt(0), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewNull(),
	}
	for _, c := range []struct {
		name, yType, views string
		pushed             bool // the DAG holds K's aggregate pushed below the join
	}{
		{"int-float", "FLOAT", `
CREATE VIEW D (Y) AS SELECT DISTINCT Y FROM B;
CREATE VIEW E (Y) AS SELECT Y FROM B EXCEPT ALL SELECT X FROM A;`, false},
		{"int-int", "INT", "", true},
	} {
		for _, method := range []mvmaint.Method{mvmaint.Exhaustive, mvmaint.NoAdditional} {
			t.Run(c.name+"/"+method.String(), func(t *testing.T) {
				db := mvmaint.Open()
				db.MustExec(`
CREATE TABLE A (AK VARCHAR(10) PRIMARY KEY, X INT);
CREATE TABLE B (BK VARCHAR(10) PRIMARY KEY, Y ` + c.yType + `);
CREATE INDEX a_x ON A (X);
CREATE INDEX b_y ON B (Y);
CREATE VIEW J (AK, BK) AS SELECT AK, BK FROM A, B WHERE A.X = B.Y;
CREATE VIEW K (Y, N) AS SELECT B.Y, COUNT(*) FROM A, B WHERE A.X = B.Y GROUP BY B.Y;` + c.views + `
INSERT INTO A VALUES ('a0', 1);
INSERT INTO B VALUES ('b0', 1.0);
`)
				types := []*txn.Type{
					{Name: "+A", Weight: 1, Updates: []txn.RelUpdate{{Rel: "A", Kind: txn.Insert, Size: 1}}},
					{Name: "+B", Weight: 1, Updates: []txn.RelUpdate{{Rel: "B", Kind: txn.Insert, Size: 1}}},
				}
				views := []string{"J", "K"}
				if c.views != "" {
					views = append(views, "D", "E")
				}
				sys, err := db.Build(views, mvmaint.Config{Workload: types, Method: method})
				if err != nil {
					t.Fatal(err)
				}
				if got := hasPartial(sys); got != c.pushed {
					t.Fatalf("DAG holds a pushed aggregate: %v, want %v", got, c.pushed)
				}
				rng := rand.New(rand.NewSource(29))
				live := map[string][]value.Tuple{}
				for _, rel := range []string{"A", "B"} {
					for _, r := range sys.DB.Store.MustGet(rel).ScanFree() {
						live[rel] = append(live[rel], r.Tuple.Clone())
					}
				}
				seq := 0
				for w := 0; w < 60; w++ {
					window := make([]txn.Transaction, 1+rng.Intn(8))
					for i := range window {
						rel := []string{"A", "B"}[rng.Intn(2)]
						d := delta.New(sys.DB.Catalog.MustGet(rel).Schema)
						if n := len(live[rel]); n > 0 && rng.Intn(3) == 0 {
							k := rng.Intn(n)
							d.Delete(live[rel][k], 1)
							live[rel] = append(live[rel][:k], live[rel][k+1:]...)
						} else {
							seq++
							tu := value.Tuple{value.NewString(fmt.Sprintf("%s%d", rel, seq)), keys[rng.Intn(len(keys))]}
							d.Insert(tu, 1)
							live[rel] = append(live[rel], tu)
						}
						window[i] = txn.Transaction{Updates: map[string]*delta.Delta{rel: d}}
					}
					if _, err := sys.M.ApplyBatch(window); err != nil {
						t.Fatalf("window %d: %v", w, err)
					}
					as, bs := sys.DB.Store.MustGet("A").ScanFree(), sys.DB.Store.MustGet("B").ScanFree()
					j := nestedLoopJoin(as, bs)
					for view, want := range map[string][]storage.Row{"J": j, "K": countByY(j, bs)} {
						got, err := sys.ViewRows(view)
						if err != nil {
							t.Fatal(err)
						}
						if g, w2 := fmt.Sprint(sortedRows(got)), fmt.Sprint(sortedRows(want)); g != w2 {
							t.Fatalf("window %d: %s = %s\nreference = %s", w, view, g, w2)
						}
					}
					for _, e := range sys.DAG.NonLeafEqs() {
						if !sys.ViewSet[e.ID] {
							continue
						}
						if drift, err := sys.M.Drift(e); err != nil || drift != "" {
							t.Fatalf("window %d: view %s drifted from recomputation: %s %v", w, e, drift, err)
						}
					}
				}
			})
		}
	}
}

// hasPartial reports whether sys's DAG holds an aggregate partial, the
// mark of an aggregate pushed below a join (a column named with an @).
func hasPartial(sys *mvmaint.System) bool {
	for _, e := range sys.DAG.NonLeafEqs() {
		for _, c := range e.Schema().ColumnNames() {
			if strings.Contains(c, "@") {
				return true
			}
		}
	}
	return false
}

// countByY is K over J's reference rows: per B.Y value (by encoding, as
// a GROUP BY keeps groups), the number of joined rows. J's rows carry
// BK, so each is traced back to its B row's Y.
func countByY(j, bs []storage.Row) []storage.Row {
	y := map[string]value.Value{}
	for _, b := range bs {
		y[b.Tuple[0].S] = b.Tuple[1]
	}
	var order []string
	n := map[string]int64{}
	byKey := map[string]value.Value{}
	for _, r := range j {
		v := y[r.Tuple[1].S]
		k := string(value.AppendKey(nil, value.Tuple{v}))
		if _, ok := n[k]; !ok {
			order = append(order, k)
			byKey[k] = v
		}
		n[k] += r.Count
	}
	out := make([]storage.Row, 0, len(order))
	for _, k := range order {
		out = append(out, storage.Row{Tuple: value.Tuple{byKey[k], value.NewInt(n[k])}, Count: 1})
	}
	return out
}

// nestedLoopJoin is J over stored A and B rows: (AK, BK) for every pair
// whose join columns are value.Equal, with the product of the counts.
func nestedLoopJoin(as, bs []storage.Row) []storage.Row {
	var out []storage.Row
	for _, a := range as {
		for _, b := range bs {
			if value.Equal(a.Tuple[1], b.Tuple[1]) {
				out = append(out, storage.Row{Tuple: value.Tuple{a.Tuple[0], b.Tuple[0]}, Count: a.Count * b.Count})
			}
		}
	}
	return out
}

// TestSQLValuesTakeTheirColumnKind: INSERT and UPDATE store a number as
// its column's declared kind — 1.0 in an INT column is Int 1, 3 in a
// FLOAT column is Float 3 — so within an INT column two values that
// compare equal encode alike. The aggregate pushed below an INT join
// counts on that: with a Float 1.0 beside an Int 1 in A.X, one group of
// B.Y would meet two groups of A.X and the view would drift.
func TestSQLValuesTakeTheirColumnKind(t *testing.T) {
	db := mvmaint.Open()
	db.MustExec(`
CREATE TABLE A (AK VARCHAR(10) PRIMARY KEY, X INT);
CREATE TABLE B (BK VARCHAR(10) PRIMARY KEY, Y INT, F FLOAT);
CREATE INDEX a_x ON A (X);
CREATE INDEX b_y ON B (Y);
CREATE VIEW K (Y, N) AS SELECT B.Y, COUNT(*) FROM A, B WHERE A.X = B.Y GROUP BY B.Y;
INSERT INTO A VALUES ('a0', 1);
INSERT INTO B VALUES ('b0', 1, 2);
`)
	types := []*txn.Type{{Name: "+A", Weight: 1, Updates: []txn.RelUpdate{{Rel: "A", Kind: txn.Insert, Size: 1}}}}
	sys, err := db.Build([]string{"K"}, mvmaint.Config{Workload: types, Method: mvmaint.Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"INSERT INTO A VALUES ('a1', 1.0), ('a2', 2.5)",
		"UPDATE B SET F = 3 WHERE BK = 'b0'",
	} {
		if _, err := sys.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	kinds := map[string]value.Kind{}
	for _, rel := range []string{"A", "B"} {
		for _, row := range sys.DB.Store.MustGet(rel).ScanFree() {
			kinds[row.Tuple[0].S] = row.Tuple[1].Kind
			if rel == "B" {
				kinds["b0.F"] = row.Tuple[2].Kind
			}
		}
	}
	if kinds["a1"] != value.Int || kinds["a2"] != value.Float || kinds["b0.F"] != value.Float {
		t.Errorf("stored kinds a1.X %v, a2.X %v, b0.F %v; want INT, FLOAT (2.5 has no INT), FLOAT",
			kinds["a1"], kinds["a2"], kinds["b0.F"])
	}
	for _, e := range sys.DAG.NonLeafEqs() {
		if !sys.ViewSet[e.ID] {
			continue
		}
		if drift, err := sys.M.Drift(e); err != nil || drift != "" {
			t.Errorf("view %s drifted from recomputation: %s %v", e, drift, err)
		}
	}
}
