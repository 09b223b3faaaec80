package sqlparser

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/storage"
	"repro/internal/value"
)

// pointRun is one keyed table kept twice: rel declares the key, so a
// statement whose WHERE fixes it reads its candidates through the key
// directory; scan is the same table with no key declared, so every
// statement walks all its rows. Every statement's delta must come out of
// both the same, row for row and in order, and the twins must hold the
// same rows in the same order after every step.
type pointRun struct {
	t         *testing.T
	draw      func(n int) int
	tr        *Translator
	kinds     []value.Kind
	key       []int // key columns, in declared order
	rel, scan *storage.Relation
	fresh     int // source of values no row has held
	stmts     int // DML statements compared
	keyed     int // ... whose WHERE fixes the key
	probed    int // ... answered through an active key directory
}

var kindSQL = map[value.Kind]string{value.Int: "INT", value.String: "VARCHAR(8)", value.Float: "FLOAT"}

func newPointRun(t *testing.T, draw func(int) int, kinds []value.Kind, key []int) *pointRun {
	var cols, keyCols []string
	for i, k := range kinds {
		cols = append(cols, fmt.Sprintf("c%d %s", i, kindSQL[k]))
	}
	for _, j := range key {
		keyCols = append(keyCols, fmt.Sprintf("c%d", j))
	}
	src := fmt.Sprintf("CREATE TABLE T (%s, PRIMARY KEY (%s))", strings.Join(cols, ", "), strings.Join(keyCols, ", "))
	stmt, err := ParseOne(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	def := TableDefFrom(stmt.(*CreateTable))
	twin := *def
	twin.Keys = nil
	rel, err := storage.NewStore().Create(def)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := storage.NewStore().Create(&twin)
	if err != nil {
		t.Fatal(err)
	}
	return &pointRun{t: t, draw: draw, tr: NewTranslator(catalog.New()), kinds: kinds, key: key, rel: rel, scan: scan}
}

// randomPointRun draws a schema of two to four columns of INT, VARCHAR
// and FLOAT, keyed on one or two of them, leaving at least one column
// out of the key.
func randomPointRun(t *testing.T, draw func(int) int) *pointRun {
	all := []value.Kind{value.Int, value.String, value.Float, value.Int}
	n := 2 + draw(3)
	kinds := make([]value.Kind, n)
	for i := range kinds {
		kinds[i] = all[draw(len(all))]
	}
	key := []int{draw(n)}
	if n > 2 && draw(3) == 0 {
		if j := (key[0] + 1 + draw(n-1)) % n; j != key[0] {
			key = append(key, j)
		}
	}
	return newPointRun(t, draw, kinds, key)
}

func (p *pointRun) isKey(j int) bool {
	for _, k := range p.key {
		if k == j {
			return true
		}
	}
	return false
}

// lit renders a literal for a column of kind k: mostly from a small
// domain, so keys and whole tuples recur (revivals), sometimes a value
// never seen before, sometimes the other numeric kind, ±0.0 or NULL.
func (p *pointRun) lit(k value.Kind) string {
	switch p.draw(16) {
	case 0:
		return "NULL"
	case 1, 2:
		p.fresh++
		switch k {
		case value.String:
			return fmt.Sprintf("'f%d'", p.fresh)
		case value.Float:
			return fmt.Sprintf("%d.5", p.fresh)
		}
		return strconv.Itoa(1000 + p.fresh)
	case 3:
		if k == value.Int {
			return fmt.Sprintf("%d.0", p.draw(4)) // the Float twin of an Int
		}
		if k == value.Float {
			return strconv.Itoa(p.draw(4)) // the Int twin of a Float
		}
	case 4:
		if k == value.Float {
			return "-0.0"
		}
	}
	switch k {
	case value.String:
		return fmt.Sprintf("'%c'", 'a'+p.draw(5))
	case value.Float:
		return []string{"0.0", "1.0", "1.5", "2.0", "-3.25"}[p.draw(5)]
	}
	return strconv.Itoa(p.draw(6) - 1)
}

// sqlOf renders a stored value as a literal, or a fresh literal when the
// value has none (NaN, ±Inf).
func (p *pointRun) sqlOf(v value.Value, k value.Kind) string {
	switch v.Kind {
	case value.Null:
		return "NULL"
	case value.Int:
		return strconv.FormatInt(v.I, 10)
	case value.String:
		return "'" + v.S + "'"
	case value.Float:
		if s := strconv.FormatFloat(v.F(), 'f', -1, 64); !strings.ContainsAny(s, "NI") {
			if !strings.Contains(s, ".") {
				s += ".0"
			}
			return s
		}
	}
	return p.lit(k)
}

// keyWhere fixes the key: to a live row's key mostly, else to drawn
// literals; the conjuncts come in either order, either way round, and
// sometimes with a further conjunct the probe leaves to the filter.
func (p *pointRun) keyWhere() string {
	var row value.Tuple
	if rows := p.scan.ScanFree(); len(rows) > 0 && p.draw(5) != 0 {
		row = rows[p.draw(len(rows))].Tuple
	}
	var conj []string
	for _, j := range p.key {
		v := p.lit(p.kinds[j])
		if row != nil {
			v = p.sqlOf(row[j], p.kinds[j])
		}
		if p.draw(4) == 0 {
			conj = append(conj, fmt.Sprintf("%s = c%d", v, j))
		} else {
			conj = append(conj, fmt.Sprintf("T.c%d = %s", j, v))
		}
	}
	if p.draw(4) == 0 {
		j := p.draw(len(p.kinds))
		conj = append(conj, fmt.Sprintf("c%d %s %s", j, []string{"=", "<>", ">="}[p.draw(3)], p.lit(p.kinds[j])))
	}
	if len(conj) > 1 && p.draw(2) == 0 {
		conj[0], conj[len(conj)-1] = conj[len(conj)-1], conj[0]
	}
	return strings.Join(conj, " AND ")
}

// statement draws one DML statement.
func (p *pointRun) statement() string {
	set := func(j int) string {
		if p.kinds[j] != value.String && p.draw(8) == 0 {
			return fmt.Sprintf("c%d = c%d + 1", j, j)
		}
		return fmt.Sprintf("c%d = %s", j, p.lit(p.kinds[j]))
	}
	nonKey := func() int {
		j := p.draw(len(p.kinds))
		for p.isKey(j) {
			j = (j + 1) % len(p.kinds)
		}
		return j
	}
	switch r := p.draw(20); {
	case r < 8: // point update of a non-key column
		return fmt.Sprintf("UPDATE T SET %s WHERE %s", set(nonKey()), p.keyWhere())
	case r < 10: // point update that moves the key, to a fresh one mostly
		j := p.key[p.draw(len(p.key))]
		if p.draw(3) != 0 {
			p.fresh++
			return fmt.Sprintf("UPDATE T SET c%d = %s WHERE %s", j, p.sqlOf(freshValue(p.kinds[j], p.fresh), p.kinds[j]), p.keyWhere())
		}
		return fmt.Sprintf("UPDATE T SET %s WHERE %s", set(j), p.keyWhere())
	case r < 13: // fire
		return "DELETE FROM T WHERE " + p.keyWhere()
	case r < 17: // hire: a fresh key mostly, a live one (a violation) sometimes
		vals := make([]string, len(p.kinds))
		for j, k := range p.kinds {
			vals[j] = p.lit(k)
			if p.isKey(j) && p.draw(30) != 0 {
				p.fresh++
				vals[j] = p.sqlOf(freshValue(k, p.fresh), k)
			}
		}
		return fmt.Sprintf("INSERT INTO T VALUES (%s)", strings.Join(vals, ", "))
	case r < 18: // no key fixed: the scan
		j := nonKey()
		return fmt.Sprintf("UPDATE T SET %s WHERE c%d = %s", set(j), j, p.lit(p.kinds[j]))
	case r < 19:
		return fmt.Sprintf("DELETE FROM T WHERE c%d = %s OR c%d = %s", p.key[0], p.lit(p.kinds[p.key[0]]), p.key[0], p.lit(p.kinds[p.key[0]]))
	default:
		return fmt.Sprintf("UPDATE T SET %s", set(nonKey()))
	}
}

func freshValue(k value.Kind, n int) value.Value {
	switch k {
	case value.String:
		return value.NewString(fmt.Sprintf("k%d", n))
	case value.Float:
		return value.NewFloat(float64(n) + 0.25)
	}
	return value.NewInt(int64(2000 + n))
}

// exec runs one statement on both twins, comparing the deltas, then
// applies each twin's own delta.
func (p *pointRun) exec(sql string) {
	p.t.Helper()
	stmt, err := ParseOne(sql)
	if err != nil {
		p.t.Fatalf("%s: %v", sql, err)
	}
	deltaOf := func(rel *storage.Relation) *delta.Delta {
		var d *delta.Delta
		var err error
		switch s := stmt.(type) {
		case *Insert:
			d, err = InsertDelta(rel.Def, s)
		case *Update:
			d, err = UpdateDelta(p.tr, rel, s)
		case *Delete:
			d, err = DeleteDelta(p.tr, rel, s)
		}
		if err != nil {
			p.t.Fatalf("%s: %v", sql, err)
		}
		return d
	}
	var where Scalar
	switch s := stmt.(type) {
	case *Update:
		where = s.Where
	case *Delete:
		where = s.Where
	}
	if where != nil {
		p.stmts++
		if pos, _ := keyLiterals(p.rel.Def, where); pos != nil {
			p.keyed++
			if p.directoryOn(pos) {
				p.probed++
			}
		}
	}
	got, want := deltaOf(p.rel), deltaOf(p.scan)
	if len(got.Changes) != len(want.Changes) {
		p.t.Fatalf("%s: probe delta %v, scan delta %v", sql, got.Changes, want.Changes)
	}
	for i, g := range got.Changes {
		w := want.Changes[i]
		if g.Count != w.Count || !value.SameTuple(g.Old, w.Old) || !value.SameTuple(g.New, w.New) {
			p.t.Fatalf("%s: change %d: probe %v, scan %v", sql, i, got.Changes, want.Changes)
		}
	}
	for _, a := range []struct {
		rel *storage.Relation
		d   *delta.Delta
	}{{p.rel, got}, {p.scan, want}} {
		a.d.Coerce()
		a.rel.ApplyBatch(a.d.ToMutations())
	}
	p.sameContents(sql)
}

// directoryOn reports whether IterateKey over pos answers from an active
// key directory: a key no row holds then yields nothing, where the
// fallback yields every row.
func (p *pointRun) directoryOn(pos []int) bool {
	if p.rel.Card() == 0 {
		return false
	}
	absent := make(value.Tuple, len(pos))
	for i := range pos {
		absent[i] = freshValue(p.kinds[pos[i]], 1<<30)
	}
	n := 0
	p.rel.IterateKey(pos, absent, func(storage.Row) bool { n++; return true })
	return n == 0
}

func (p *pointRun) sameContents(after string) {
	p.t.Helper()
	got, want := p.rel.ScanFree(), p.scan.ScanFree()
	if len(got) != len(want) {
		p.t.Fatalf("after %s: %d rows, twin %d", after, len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count || !value.SameTuple(got[i].Tuple, want[i].Tuple) {
			p.t.Fatalf("after %s: row %d is %v×%d, twin %v×%d", after, i, got[i].Tuple, got[i].Count, want[i].Tuple, want[i].Count)
		}
	}
}

// step runs one drawn step: mostly a statement; sometimes churn that
// drives a compaction, a Restore from a snapshot, a Load that repeats a
// live row's key, or a Load of a row with a NaN in a numeric column,
// the key's first where it has one. No SQL literal spells a NaN; the
// storage API loads one directly.
func (p *pointRun) step() {
	switch p.draw(128) {
	case 0: // churn: enough fresh-valued point updates to compact
		rows := p.scan.Snapshot()
		if len(rows) == 0 {
			return
		}
		j := 0
		for p.isKey(j) {
			j++
		}
		for i := 0; i < 1100; i++ {
			row := rows[i%len(rows)].Tuple
			var conj []string
			for _, k := range p.key {
				conj = append(conj, fmt.Sprintf("c%d = %s", k, p.sqlOf(row[k], p.kinds[k])))
			}
			p.fresh++
			p.exec(fmt.Sprintf("UPDATE T SET c%d = %s WHERE %s", j, p.sqlOf(freshValue(p.kinds[j], p.fresh), p.kinds[j]), strings.Join(conj, " AND ")))
		}
	case 1:
		p.rel.Restore(p.rel.Snapshot())
		p.scan.Restore(p.scan.Snapshot())
		p.sameContents("Restore")
	case 2:
		rows := p.scan.ScanFree()
		if len(rows) == 0 {
			return
		}
		dup := rows[p.draw(len(rows))].Tuple.Clone()
		for j := range dup {
			if !p.isKey(j) {
				p.fresh++
				dup[j] = freshValue(p.kinds[j], p.fresh)
			}
		}
		p.rel.Load([]storage.Row{{Tuple: dup, Count: 1}})
		p.scan.Load([]storage.Row{{Tuple: dup.Clone(), Count: 1}})
		p.sameContents("Load of a repeated key")
	case 3:
		if p.draw(3) != 0 { // rarely: the NaN row switches the directory off while it lives
			return
		}
		row := make(value.Tuple, len(p.kinds))
		nan := -1
		for j, k := range p.kinds {
			p.fresh++
			row[j] = freshValue(k, p.fresh)
			if k != value.String && (nan < 0 || p.isKey(j) && !p.isKey(nan)) {
				nan = j
			}
		}
		if nan < 0 {
			return
		}
		row[nan] = value.NewFloat(math.NaN())
		p.rel.Load([]storage.Row{{Tuple: row, Count: 1}})
		p.scan.Load([]storage.Row{{Tuple: row.Clone(), Count: 1}})
		p.sameContents("Load of a NaN")
	default:
		p.exec(p.statement())
	}
}

// TestPointDMLMatchesScan runs random keyed schemas through random
// UPDATE/DELETE/INSERT streams (revivals, hire/fire churn, key moves and
// violations, compactions, Restore, a Load that repeats a key, a Load
// of a NaN) and holds the key-probe path to the scan's answer after
// every statement. The fixed cases are a FLOAT key holding NaN, ±0.0
// and Int/Float twins, which the probe declines, and an INT key a
// loaded NaN reaches, which switches the directory off.
func TestPointDMLMatchesScan(t *testing.T) {
	type run struct {
		name  string
		kinds []value.Kind
		key   []int
	}
	runs := []run{
		{"float-key", []value.Kind{value.Float, value.Int}, []int{0}},
		{"int-key", []value.Kind{value.Int, value.Float, value.String}, []int{0}},
		{"string-int-key", []value.Kind{value.String, value.Int, value.Int}, []int{0, 1}},
	}
	for seed := 1; seed <= 10; seed++ {
		runs = append(runs, run{name: fmt.Sprintf("seed%d", seed)})
	}
	for i, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			var p *pointRun
			if r.kinds == nil {
				p = randomPointRun(t, rng.Intn)
			} else {
				p = newPointRun(t, rng.Intn, r.kinds, r.key)
			}
			for s := 0; s < 1000; s++ {
				p.step()
			}
			t.Logf("%v key %v: %d statements with a WHERE, %d fixing the key, %d through the directory",
				p.kinds, p.key, p.stmts, p.keyed, p.probed)
			floatKey := false
			for _, j := range p.key {
				floatKey = floatKey || p.kinds[j] == value.Float
			}
			switch {
			case floatKey && p.keyed != 0:
				t.Errorf("%d statements probed a FLOAT key", p.keyed)
			case !floatKey && p.probed*8 < p.keyed:
				t.Errorf("only %d of %d keyed statements went through the directory", p.probed, p.keyed)
			}
		})
	}
}

// FuzzPointDML is TestPointDMLMatchesScan on schemas and streams
// decoded from the input, one byte per choice.
//
//	go test -run '^$' -fuzz '^FuzzPointDML$' -fuzztime 10s ./internal/sqlparser/
func FuzzPointDML(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 9, 1, 200, 3, 7})
	f.Add([]byte{2, 1, 2, 0, 3, 0, 40, 4, 4, 4, 12, 9, 0, 0, 0, 64, 1, 64, 2})
	f.Add([]byte{1, 2, 0, 3, 0, 0, 0, 0, 0, 0, 128, 128, 128, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v % n
		}
		p := randomPointRun(t, draw)
		for len(data) > 0 {
			p.step()
		}
	})
}
