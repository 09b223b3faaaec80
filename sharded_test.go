package mvmaint_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	mvmaint "repro"
	"repro/internal/delta"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// sortedRows orders rows by their rendered form for order-insensitive
// comparison across pipelines.
func sortedRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v x%d", r.Tuple, r.Count)
	}
	sort.Strings(out)
	return out
}

func sumRowCounts(rows []storage.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.Count
	}
	return n
}

// TestBuildShardedMatchesSerial drives the root facade: the sharded
// system built from a deterministic DB factory must agree with the
// unsharded System on view contents and assertion verdicts after every
// window, at every shard count — including windows that create and then
// clear violations.
func TestBuildShardedMatchesSerial(t *testing.T) {
	const departments, empsPerDept = 12, 4
	factory := func() (*mvmaint.DB, error) {
		return paperDB(t, departments, empsPerDept), nil
	}
	cfg := mvmaint.Config{
		Workload: paperWorkload(),
		Method:   mvmaint.Exhaustive,
	}
	serialDB := paperDB(t, departments, empsPerDept)
	serial, err := serialDB.Build([]string{"DeptConstraint"}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		n   int
		sys *mvmaint.ShardedSystem
	}
	var variants []variant
	for _, n := range []int{1, 2, 4} {
		scfg := cfg
		scfg.Shards = n
		scfg.Parallelism = 2
		sys, err := mvmaint.BuildSharded(factory, []string{"DeptConstraint"}, scfg)
		if err != nil {
			t.Fatalf("BuildSharded(%d): %v", n, err)
		}
		if sys.ViewSet.Key() != serial.ViewSet.Key() {
			t.Fatalf("shards=%d chose view set %s, serial chose %s",
				n, sys.ViewSet.Key(), serial.ViewSet.Key())
		}
		desc := sys.Describe()
		if !strings.Contains(desc, fmt.Sprintf("%d shards", n)) {
			t.Fatalf("shards=%d Describe = %q", n, desc)
		}
		t.Logf("shards=%d: %s", n, desc)
		variants = append(variants, variant{n, sys})
	}

	empDef := serialDB.Catalog.MustGet("Emp")
	empRel, ok := serialDB.Store.Get("Emp")
	if !ok {
		t.Fatal("no Emp relation")
	}
	mkWindow := func(kind txn.Kind, d *delta.Delta) []txn.Transaction {
		ty := &txn.Type{Name: ">Emp", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "Emp", Kind: kind, Size: float64(d.Size()), Cols: []string{"Salary"}}}}
		return []txn.Transaction{{Type: ty, Updates: map[string]*delta.Delta{"Emp": d}}}
	}
	// Windows are generated lazily against the serial DB's evolving base
	// state; the same value-based deltas apply on every shard because the
	// factory rebuilds the identical database.
	windows := []func() []txn.Transaction{
		func() []txn.Transaction { // benign raises across all departments
			d := delta.New(empDef.Schema)
			for i, row := range empRel.ScanFree() {
				if i%3 != 0 {
					continue
				}
				nt := row.Tuple.Clone()
				nt[2] = value.NewInt(nt[2].I + 10)
				d.Modify(row.Tuple, nt, row.Count)
			}
			return mkWindow(txn.Modify, d)
		},
		func() []txn.Transaction { // absurd raise: dept d000 now violates
			d := delta.New(empDef.Schema)
			for _, row := range empRel.ScanFree() {
				if row.Tuple[0].S != "e000_00" {
					continue
				}
				nt := row.Tuple.Clone()
				nt[2] = value.NewInt(1000000)
				d.Modify(row.Tuple, nt, row.Count)
			}
			return mkWindow(txn.Modify, d)
		},
		func() []txn.Transaction { // fire the violator: constraint clears
			d := delta.New(empDef.Schema)
			for _, row := range empRel.ScanFree() {
				if row.Tuple[0].S != "e000_00" {
					continue
				}
				d.Delete(row.Tuple, row.Count)
			}
			return mkWindow(txn.Delete, d)
		},
	}
	wantViolations := []int64{0, 1, 0}
	// Lift the serial system's guard (which would reject the violation):
	// the sharded pipeline applies unconditionally, so both sides must
	// see the violating state to stay comparable.
	serial.M.Guards = nil

	for w, gen := range windows {
		window := gen()
		if _, err := serial.M.ApplyBatch(window); err != nil {
			t.Fatalf("window %d serial: %v", w, err)
		}
		serialRows, err := serial.ViewRows("DeptConstraint")
		if err != nil {
			t.Fatal(err)
		}
		if got := sumRowCounts(serialRows); got != wantViolations[w] {
			t.Fatalf("window %d: serial violations = %d, want %d", w, got, wantViolations[w])
		}
		for _, v := range variants {
			if _, err := v.sys.ExecuteWindow(window); err != nil {
				t.Fatalf("window %d shards=%d: %v", w, v.n, err)
			}
			rows, err := v.sys.ViewRows("DeptConstraint")
			if err != nil {
				t.Fatal(err)
			}
			got, want := sortedRows(rows), sortedRows(serialRows)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("window %d shards=%d: view diverged\nsharded: %v\nserial:  %v",
					w, v.n, got, want)
			}
			viol, err := v.sys.Violations("DeptConstraint")
			if err != nil {
				t.Fatal(err)
			}
			if viol != wantViolations[w] {
				t.Fatalf("window %d shards=%d: violations = %d, want %d",
					w, v.n, viol, wantViolations[w])
			}
		}
	}
}

// fig5SQL renders the benchmark's Figure 5 database over the DDL of
// testdata/fig5_skew.sql: items items with 4 R rows and 5 sales each,
// and skewExtra extra sales on each of the first hot items, named and
// valued as the file's rows are.
func fig5SQL(tb testing.TB, items, hot int) string {
	file, err := os.ReadFile("testdata/fig5_skew.sql")
	if err != nil {
		tb.Fatal(err)
	}
	ddl, _, _ := strings.Cut(string(file), "INSERT INTO")
	var b strings.Builder
	b.WriteString(ddl)
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("item%03d", i)
		fmt.Fprintf(&b, "INSERT INTO T VALUES ('%s', %d);\nINSERT INTO R VALUES ", item, 10+i%7)
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&b, "%s('r%03d_%d', '%s')", strings.Repeat(", ", min(j, 1)), i, j, item)
		}
		b.WriteString(";\nINSERT INTO S VALUES ")
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&b, "%s('s%03d_%d', '%s', %d)", strings.Repeat(", ", min(j, 1)), i, j, item, 1+(i+j)%5)
		}
		if i < hot {
			for k := 0; k < skewExtra; k++ {
				fmt.Fprintf(&b, ", ('x%07d', '%s', %d)", i*skewExtra+k, item, 1+k%5)
			}
		}
		b.WriteString(";\n")
	}
	return b.String()
}

// TestFig5SQLMatchesCorpus: at the corpus's size fig5SQL loads exactly
// the rows of testdata/fig5_skew.sql, so the two cannot drift apart.
func TestFig5SQLMatchesCorpus(t *testing.T) {
	file, err := os.ReadFile("testdata/fig5_skew.sql")
	if err != nil {
		t.Fatal(err)
	}
	want, got := mvmaint.Open(), mvmaint.Open()
	want.MustExec(string(file))
	got.MustExec(fig5SQL(t, 200, skewHot))
	for _, rel := range []string{"R", "S", "T"} {
		w, err := want.Query("SELECT * FROM " + rel)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Query("SELECT * FROM " + rel)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sortedRows(g.Rows)) != fmt.Sprint(sortedRows(w.Rows)) {
			t.Fatalf("%s: fig5SQL rows differ from the corpus file", rel)
		}
	}
}

// BenchmarkShardedWindow measures sharding where a 2-CPU host can: the
// benchmark's Figure 5 shape (1 000 items, 4 R rows and 5 sales each, 64
// extra sales on each of 16 hot items; 80/10/10 price changes, sales and
// deletions in windows of 64) built with BuildSharded, partitioned on
// Item so that every view is shard-local, at 1 and 2 shards. One op is
// one window; the windows are drawn before the timer. Reports txn/s and
// the page I/O per transaction, which must not depend on the shard count.
func BenchmarkShardedWindow(b *testing.B) {
	const items, hot = 1000, 16
	sql := fig5SQL(b, items, hot)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			factory := func() (*mvmaint.DB, error) {
				db := mvmaint.Open()
				return db, db.Exec(sql)
			}
			sys, err := mvmaint.BuildSharded(factory, []string{"Revenue"}, mvmaint.Config{
				Workload: skewTypes(), Shards: shards, PartitionBy: "Item", Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			if sys.S.NumShards() != shards {
				b.Fatalf("built %s, want %d shards", sys.Describe(), shards)
			}
			stream := newSkewStream(sys.Catalog, hot, 1)
			windows := make([][]txn.Transaction, b.N)
			for i := range windows {
				windows[i] = make([]txn.Transaction, skewWindow)
				for j := range windows[i] {
					windows[i][j] = stream.next()
				}
			}
			io0 := sys.S.IO()
			b.ResetTimer()
			for _, w := range windows {
				if _, err := sys.ExecuteWindow(w); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			txns := float64(b.N * skewWindow)
			io := sys.S.IO().Sub(io0)
			b.ReportMetric(txns/b.Elapsed().Seconds(), "txn/s")
			b.ReportMetric(float64(io.Total())/txns, "io/txn")
			for _, e := range sys.DAG.Roots {
				if drift, err := sys.S.Drift(e); err != nil || drift != "" {
					b.Fatalf("%s drifted from the recompute oracle: %q %v", e, drift, err)
				}
			}
		})
	}
}

// TestBuildShardedErrors covers the facade's argument validation and the
// single-shard fallback when the partition column cannot carry the view
// set.
func TestBuildShardedErrors(t *testing.T) {
	factory := func() (*mvmaint.DB, error) { return paperDB(t, 4, 2), nil }
	cfg := mvmaint.Config{Workload: paperWorkload(), Shards: 2}

	if _, err := mvmaint.BuildSharded(factory, nil, cfg); err == nil {
		t.Error("no names: want error")
	}
	if _, err := mvmaint.BuildSharded(factory, []string{"Nope"}, cfg); err == nil {
		t.Error("unknown name: want error")
	}
	zero := cfg
	zero.Shards = 0
	if _, err := mvmaint.BuildSharded(factory, []string{"DeptConstraint"}, zero); err == nil {
		t.Error("Shards=0: want error")
	}
	noWork := cfg
	noWork.Workload = nil
	if _, err := mvmaint.BuildSharded(factory, []string{"DeptConstraint"}, noWork); err == nil {
		t.Error("no workload: want error")
	}

	// Budget lives on Dept and appears in no join/group key, so the view
	// set cannot be partitioned on it: the build must fall back to one
	// shard and say why.
	fb := cfg
	fb.PartitionBy = "Budget"
	sys, err := mvmaint.BuildSharded(factory, []string{"DeptConstraint"}, fb)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.S.NumShards(); got != 1 {
		t.Fatalf("fallback NumShards = %d, want 1", got)
	}
	if sys.S.Part.Reason == "" {
		t.Error("fallback recorded no reason")
	}
	t.Logf("fallback: %s", sys.Describe())
}
