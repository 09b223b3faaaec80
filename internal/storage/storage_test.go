package storage

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

func empDef() *catalog.TableDef {
	return &catalog.TableDef{
		Name: "Emp",
		Schema: catalog.NewSchema(
			catalog.Column{Qualifier: "Emp", Name: "EName", Type: value.String},
			catalog.Column{Qualifier: "Emp", Name: "DName", Type: value.String},
			catalog.Column{Qualifier: "Emp", Name: "Salary", Type: value.Int},
		),
		Keys:    [][]string{{"EName"}},
		Indexes: []catalog.IndexDef{{Name: "emp_dname", Columns: []string{"DName"}}},
	}
}

func emp(e, d string, sal int64) value.Tuple {
	return value.Tuple{value.NewString(e), value.NewString(d), value.NewInt(sal)}
}

func newEmpRel(t *testing.T) (*Store, *Relation) {
	t.Helper()
	st := NewStore()
	rel, err := st.Create(empDef())
	if err != nil {
		t.Fatal(err)
	}
	return st, rel
}

func TestLoadAndScan(t *testing.T) {
	st, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{
		emp("e1", "d1", 100),
		emp("e2", "d1", 200),
		emp("e3", "d2", 300),
	})
	if rel.Card() != 3 {
		t.Fatalf("Card = %d, want 3", rel.Card())
	}
	if st.IO.Total() != 0 {
		t.Errorf("Load must be free, charged %v", st.IO)
	}
	rows := rel.Scan()
	if len(rows) != 3 {
		t.Fatalf("Scan returned %d rows", len(rows))
	}
	// Unclustered: one page read per tuple.
	if st.IO.PageReads != 3 || st.IO.Total() != 3 {
		t.Errorf("Scan charge = %v, want 3 page reads", st.IO)
	}
}

// TestLookupCostMatchesPaper checks the §3.6 convention: an indexed read
// of the 10 employees of one department costs 11 page I/Os (1 index page
// + 10 tuple pages).
func TestLookupCostMatchesPaper(t *testing.T) {
	st, rel := newEmpRel(t)
	for j := 0; j < 10; j++ {
		rel.LoadTuples([]value.Tuple{emp(string(rune('a'+j)), "d1", 100)})
	}
	rel.LoadTuples([]value.Tuple{emp("z", "d2", 100)})
	rows := rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d1")})
	if len(rows) != 10 {
		t.Fatalf("Lookup returned %d rows, want 10", len(rows))
	}
	if got := st.IO.Total(); got != 11 {
		t.Errorf("Lookup cost = %d, want 11 (%v)", got, st.IO)
	}
	if st.IO.IndexReads != 1 || st.IO.PageReads != 10 {
		t.Errorf("charge split = %v", st.IO)
	}
}

func TestLookupQualifiedColumn(t *testing.T) {
	_, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{emp("e1", "d1", 100)})
	rows := rel.Lookup([]string{"Emp.DName"}, value.Tuple{value.NewString("d1")})
	if len(rows) != 1 {
		t.Errorf("qualified Lookup returned %d rows", len(rows))
	}
}

func TestLookupWithoutIndexFallsBackToScan(t *testing.T) {
	st, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{
		emp("e1", "d1", 100),
		emp("e2", "d1", 200),
	})
	rows := rel.Lookup([]string{"Salary"}, value.Tuple{value.NewInt(200)})
	if len(rows) != 1 {
		t.Fatalf("scan-match returned %d rows", len(rows))
	}
	// Full scan charge: every live tuple's page.
	if st.IO.PageReads != 2 || st.IO.IndexReads != 0 {
		t.Errorf("fallback charge = %v", st.IO)
	}
}

// TestModifyBatchCostMatchesPaper checks the two §3.6 update costs:
// modifying 1 tuple of an indexed relation costs 3 (index read + tuple
// read + tuple write); modifying 10 tuples costs 21.
func TestModifyBatchCostMatchesPaper(t *testing.T) {
	st, rel := newEmpRel(t)
	for j := 0; j < 10; j++ {
		rel.LoadTuples([]value.Tuple{emp(string(rune('a'+j)), "d1", 100)})
	}
	st.IO.Reset()
	rel.ApplyBatch([]Mutation{{
		Old: emp("a", "d1", 100),
		New: emp("a", "d1", 150),
	}})
	if got := st.IO.Total(); got != 3 {
		t.Errorf("single modify = %d I/Os, want 3 (%v)", got, st.IO)
	}
	st.IO.Reset()
	var batch []Mutation
	for j := 0; j < 10; j++ {
		name := string(rune('a' + j))
		sal := int64(100)
		if j == 0 {
			sal = 150
		}
		batch = append(batch, Mutation{
			Old: emp(name, "d1", sal),
			New: emp(name, "d1", sal+7),
		})
	}
	rel.ApplyBatch(batch)
	if got := st.IO.Total(); got != 21 {
		t.Errorf("batch of 10 modifies = %d I/Os, want 21 (%v)", got, st.IO)
	}
	if st.IO.IndexWrites != 0 {
		t.Errorf("non-indexed-column modify should not write the index: %v", st.IO)
	}
}

func TestModifyIndexedColumnWritesIndex(t *testing.T) {
	st, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{emp("e1", "d1", 100)})
	st.IO.Reset()
	rel.ApplyBatch([]Mutation{{
		Old: emp("e1", "d1", 100),
		New: emp("e1", "d2", 100),
	}})
	// Moving a tuple between hash buckets touches both bucket pages:
	// two reads, two writes.
	if st.IO.IndexWrites != 2 || st.IO.IndexReads != 2 {
		t.Errorf("moving a tuple between buckets must rewrite both buckets: %v", st.IO)
	}
	rows := rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d2")})
	if len(rows) != 1 {
		t.Errorf("tuple should be findable under new key, got %d rows", len(rows))
	}
	rows = rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d1")})
	if len(rows) != 0 {
		t.Errorf("tuple should be gone from old bucket, got %d rows", len(rows))
	}
}

func TestInsertDeleteCounts(t *testing.T) {
	st, rel := newEmpRel(t)
	st.IO.Reset()
	rel.ApplyBatch([]Mutation{{New: emp("e1", "d1", 100)}})
	// Insert: index read+write, tuple write.
	if st.IO.IndexReads != 1 || st.IO.IndexWrites != 1 || st.IO.PageWrites != 1 || st.IO.PageReads != 0 {
		t.Errorf("insert charge = %v", st.IO)
	}
	if rel.Card() != 1 {
		t.Errorf("Card = %d after insert", rel.Card())
	}
	st.IO.Reset()
	rel.ApplyBatch([]Mutation{{Old: emp("e1", "d1", 100)}})
	if st.IO.IndexReads != 1 || st.IO.IndexWrites != 1 || st.IO.PageReads != 1 || st.IO.PageWrites != 0 {
		t.Errorf("delete charge = %v", st.IO)
	}
	if rel.Card() != 0 {
		t.Errorf("Card = %d after delete", rel.Card())
	}
}

func TestBagCounts(t *testing.T) {
	_, rel := newEmpRel(t)
	tup := emp("e1", "d1", 100)
	rel.Load([]Row{{Tuple: tup, Count: 3}})
	if got := rel.GetCount(tup); got != 3 {
		t.Errorf("GetCount = %d, want 3", got)
	}
	rel.ApplyBatch([]Mutation{{Old: tup, Count: 2}})
	if got := rel.GetCount(tup); got != 1 {
		t.Errorf("GetCount after partial delete = %d, want 1", got)
	}
	rel.ApplyBatch([]Mutation{{Old: tup, Count: 5}})
	if got := rel.GetCount(tup); got != 0 {
		t.Errorf("GetCount floors at 0, got %d", got)
	}
	if rel.Card() != 0 {
		t.Error("fully deleted tuple should not be live")
	}
	rows := rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d1")})
	if len(rows) != 0 {
		t.Error("dead tuple must leave the index")
	}
}

func TestEmptyBatchIsFree(t *testing.T) {
	st, rel := newEmpRel(t)
	rel.ApplyBatch(nil)
	if st.IO.Total() != 0 {
		t.Errorf("empty batch charged %v", st.IO)
	}
}

func TestResidentRelationIsFree(t *testing.T) {
	st, rel := newEmpRel(t)
	rel.Resident = true
	rel.LoadTuples([]value.Tuple{emp("e1", "d1", 100)})
	rel.Scan()
	rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d1")})
	rel.ApplyBatch([]Mutation{{Old: emp("e1", "d1", 100), New: emp("e1", "d1", 200)}})
	if st.IO.Total() != 0 {
		t.Errorf("resident relation charged %v", st.IO)
	}
}

func TestSnapshotRestore(t *testing.T) {
	_, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{emp("e1", "d1", 100), emp("e2", "d2", 200)})
	snap := rel.Snapshot()
	rel.ApplyBatch([]Mutation{
		{Old: emp("e1", "d1", 100)},
		{New: emp("e3", "d3", 300)},
	})
	rel.Restore(snap)
	if rel.Card() != 2 {
		t.Fatalf("Card after restore = %d", rel.Card())
	}
	rows := rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d1")})
	if len(rows) != 1 {
		t.Error("restored tuple should be indexed")
	}
	rows = rel.Lookup([]string{"DName"}, value.Tuple{value.NewString("d3")})
	if len(rows) != 0 {
		t.Error("post-snapshot insert should be gone")
	}
}

func TestRefreshStats(t *testing.T) {
	_, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{
		emp("e1", "d1", 100),
		emp("e2", "d1", 200),
		emp("e3", "d2", 300),
	})
	rel.RefreshStats()
	st := rel.Def.Stats
	if st.Card != 3 {
		t.Errorf("Card = %g", st.Card)
	}
	if st.Distinct["DName"] != 2 {
		t.Errorf("Distinct[DName] = %g", st.Distinct["DName"])
	}
	if st.Distinct["EName"] != 3 {
		t.Errorf("Distinct[EName] = %g", st.Distinct["EName"])
	}
	// d1 holds two of the three rows: a random row sees (2²+1²)/3.
	if got, want := st.Fanout["DName"], 5.0/3; got != want {
		t.Errorf("Fanout[DName] = %g, want %g", got, want)
	}
	if got := st.Fanout["EName"]; got != 1 {
		t.Errorf("Fanout[EName] = %g, want 1", got)
	}
}

// TestRefreshStatsUniformIsCardOverDistinct: where every value of a
// column occurs equally often the size-biased fan-out is bit-equal to
// Card/Distinct — equality, not a tolerance, is what leaves every
// estimate on uniform data (the paper's tables) where it was.
func TestRefreshStatsUniformIsCardOverDistinct(t *testing.T) {
	for _, shape := range []struct{ depts, per int }{{1000, 10}, {7, 3}, {1, 13}, {97, 1}} {
		_, rel := newEmpRel(t)
		for d := 0; d < shape.depts; d++ {
			for e := 0; e < shape.per; e++ {
				rel.LoadTuples([]value.Tuple{emp(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("d%d", d), 100)})
			}
		}
		rel.RefreshStats()
		st := rel.Def.Stats
		for _, col := range []string{"EName", "DName", "Salary"} {
			if got, want := st.Fanout[col], st.Card/st.Distinct[col]; got != want {
				t.Errorf("%d x %d: Fanout[%s] = %v, Card/Distinct = %v", shape.depts, shape.per, col, got, want)
			}
		}
	}
}

// TestRefreshStatsCountsLiveEntries: deletes and modifies leave dead
// entries in the index lists until compaction, and a tuple of
// multiplicity > 1 is one stored entry; the statistics must count
// exactly what a Lookup would return, before and after compaction.
func TestRefreshStatsCountsLiveEntries(t *testing.T) {
	_, rel := newEmpRel(t)
	// d0 holds 6 employees, d1..d3 two each; e0_0 is stored three times.
	for d, n := range []int{6, 2, 2, 2} {
		for e := 0; e < n; e++ {
			rel.LoadTuples([]value.Tuple{emp(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("d%d", d), 100)})
		}
	}
	rel.Load([]Row{{Tuple: emp("e0_0", "d0", 100), Count: 2}})
	check := func(when string, card float64, dnames, fanout float64) {
		t.Helper()
		rel.RefreshStats()
		st := rel.Def.Stats
		if st.Card != card || st.Distinct["DName"] != dnames || st.Fanout["DName"] != fanout {
			t.Errorf("%s: Card %v Distinct[DName] %v Fanout[DName] %v, want %v %v %v",
				when, st.Card, st.Distinct["DName"], st.Fanout["DName"], card, dnames, fanout)
		}
		if got := st.Fanout["EName"]; got != 1 {
			t.Errorf("%s: Fanout[EName] = %v, want 1 (a key)", when, got)
		}
	}
	check("loaded", 12, 4, (36.0+4+4+4)/12)

	// Delete d3 entirely, move one d0 employee to d1: dead entries stay
	// in d3's and d0's bucket lists.
	rel.ApplyBatch([]Mutation{
		{Old: emp("e3_0", "d3", 100)},
		{Old: emp("e3_1", "d3", 100)},
		{Old: emp("e0_5", "d0", 100), New: emp("e0_5", "d1", 100)},
	})
	check("after delete and modify", 10, 3, (25.0+9+4)/10)

	// Churn until the relation compacts, then back to the same bag.
	for i, last := 0, 0; len(rel.entries) >= last; i++ {
		if i > 5000 {
			t.Fatal("relation never compacted")
		}
		last = len(rel.entries)
		tmp := emp(fmt.Sprintf("tmp%d", i), "d9", 1)
		rel.ApplyBatch([]Mutation{{New: tmp}})
		rel.ApplyBatch([]Mutation{{Old: tmp}})
	}
	check("after compaction", 10, 3, (25.0+9+4)/10)
}

// TestRefreshStatsOnlyWhenChanged: a relation whose bag has not changed
// since its statistics were taken is not rescanned, and every way of
// changing it (load, batch apply, restore) marks it.
func TestRefreshStatsOnlyWhenChanged(t *testing.T) {
	_, rel := newEmpRel(t)
	rel.LoadTuples([]value.Tuple{emp("e1", "d1", 100), emp("e2", "d1", 200)})
	rel.RefreshStats()
	if allocs := testing.AllocsPerRun(10, rel.RefreshStats); allocs != 0 {
		t.Errorf("RefreshStats on an unchanged relation allocated %v times: it rescanned", allocs)
	}
	// A sentinel survives a refresh that has nothing to do.
	rel.Def.Stats.Card = -1
	rel.RefreshStats()
	if rel.Def.Stats.Card != -1 {
		t.Error("RefreshStats recomputed an unchanged relation")
	}
	changes := []struct {
		name   string
		change func()
	}{
		{"LoadTuples", func() { rel.LoadTuples([]value.Tuple{emp("e3", "d2", 300)}) }},
		{"ApplyBatch", func() { rel.ApplyBatch([]Mutation{{Old: emp("e1", "d1", 100)}}) }},
		{"Restore", func() { rel.Restore(nil) }},
	}
	for _, c := range changes {
		rel.Def.Stats.Card = -1
		c.change()
		rel.RefreshStats()
		if got, want := rel.Def.Stats.Card, float64(rel.Card()); got != want {
			t.Errorf("after %s: Card = %v, want %v", c.name, got, want)
		}
	}
}

// BenchmarkRefreshStats times one full statistics pass at the shape of
// the fig5-batch64 benchmark's S relation: 6 024 rows of 3 columns, 16
// of 1 000 items carrying 69 rows each.
func BenchmarkRefreshStats(b *testing.B) {
	st := NewStore()
	rel, err := st.Create(empDef())
	if err != nil {
		b.Fatal(err)
	}
	for item := 0; item < 1000; item++ {
		n := 5
		if item < 16 {
			n = 69
		}
		for j := 0; j < n; j++ {
			rel.LoadTuples([]value.Tuple{emp(fmt.Sprintf("s%04d_%d", item, j), fmt.Sprintf("item%04d", item), int64(1+j%5))})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel.statsStale = true
		rel.RefreshStats()
	}
	if got := rel.Def.Stats.Card; got != 6024 {
		b.Fatalf("Card = %v", got)
	}
}
