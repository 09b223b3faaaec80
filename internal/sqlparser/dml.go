package sqlparser

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// InsertDelta converts INSERT INTO ... VALUES into a differential against
// the table's schema.
func InsertDelta(def *catalog.TableDef, ins *Insert) (*delta.Delta, error) {
	d := delta.New(def.Schema)
	for _, row := range ins.Rows {
		if len(row) != def.Schema.Len() {
			return nil, fmt.Errorf("sql: INSERT %s: %d values for %d columns",
				ins.Table, len(row), def.Schema.Len())
		}
		d.Insert(value.Tuple(row).Clone(), 1)
	}
	return d, nil
}

// DeleteDelta evaluates DELETE's WHERE against the current (pre-update)
// contents in place, uncharged, and returns the deletions. A WHERE that
// fixes a declared key reads its candidates through the key (see
// candidates).
func DeleteDelta(tr *Translator, rel *storage.Relation, del *Delete) (*delta.Delta, error) {
	d := delta.New(rel.Def.Schema)
	match, err := compileWhere(tr, rel, del.Where)
	if err != nil {
		return nil, err
	}
	candidates(rel, del.Where)(func(row storage.Row) bool {
		if match(row.Tuple) {
			d.Delete(row.Tuple.Clone(), row.Count)
		}
		return true
	})
	return d, nil
}

// UpdateDelta evaluates UPDATE's WHERE and SET against the current
// contents in place, uncharged, and returns paired modifications. A
// WHERE that fixes a declared key reads its candidates through the key
// (see candidates).
func UpdateDelta(tr *Translator, rel *storage.Relation, upd *Update) (*delta.Delta, error) {
	d := delta.New(rel.Def.Schema)
	match, err := compileWhere(tr, rel, upd.Where)
	if err != nil {
		return nil, err
	}
	type setter struct {
		pos int
		p   *expr.Prog
	}
	setters := make([]setter, len(upd.Set))
	for i, sc := range upd.Set {
		pos, err := rel.Def.Schema.Resolve(sc.Column)
		if err != nil {
			return nil, err
		}
		e, err := tr.scalarExpr(sc.Expr, false)
		if err != nil {
			return nil, err
		}
		p, err := expr.CompileProg(e, rel.Def.Schema)
		if err != nil {
			return nil, err
		}
		setters[i] = setter{pos: pos, p: p}
	}
	candidates(rel, upd.Where)(func(row storage.Row) bool {
		if !match(row.Tuple) {
			return true
		}
		newT := row.Tuple.Clone()
		for _, s := range setters {
			newT[s.pos] = s.p.Eval(row.Tuple)
		}
		d.Modify(row.Tuple.Clone(), newT, row.Count)
		return true
	})
	return d, nil
}

// ModifiedColumns returns the bare column names an UPDATE changes.
func ModifiedColumns(upd *Update) []string {
	out := make([]string, len(upd.Set))
	for i, sc := range upd.Set {
		out[i] = sc.Column
	}
	return out
}

func compileWhere(tr *Translator, rel *storage.Relation, where Scalar) (func(value.Tuple) bool, error) {
	if where == nil {
		return func(value.Tuple) bool { return true }, nil
	}
	e, err := tr.scalarExpr(where, false)
	if err != nil {
		return nil, err
	}
	p, err := expr.CompileProg(e, rel.Def.Schema)
	if err != nil {
		return nil, err
	}
	return p.Truth, nil
}

// candidates returns the walk over the rows a DML statement's WHERE must
// be tested on, in first-insertion order. When every column of a
// declared key (catalog.TableDef.Keys, the first such key) is fixed by a
// top-level AND conjunct `col = literal` (or `literal = col`), it walks
// Relation.IterateKey, which answers from the relation's key directory
// with at most one row; otherwise every live row. Either way the full
// WHERE still filters what it yields.
//
// A key with a FLOAT column is never probed: KeyEncoder.EqualKey, which
// the directory hashes on, gives a NaN its own key while value.Equal
// calls it equal to every number (the FOUND on EqualKey in CHANGES.md),
// so on such a column the scan is the only answer right by construction.
func candidates(rel *storage.Relation, where Scalar) func(func(storage.Row) bool) {
	if where != nil {
		if pos, key := keyLiterals(rel.Def, where); pos != nil {
			return func(yield func(storage.Row) bool) { rel.IterateKey(pos, key, yield) }
		}
	}
	return rel.Iterate
}

// keyLiterals returns the positions of the first declared key of def
// whose columns where's top-level conjuncts all bind to literals, with
// those literals in key order; nil when there is none.
func keyLiterals(def *catalog.TableDef, where Scalar) ([]int, value.Tuple) {
	conj := conjuncts(where)
keys:
	for _, k := range def.Keys {
		if len(k) == 0 {
			continue
		}
		pos, key := make([]int, len(k)), make(value.Tuple, len(k))
		for i, name := range k {
			j, err := def.Schema.Resolve(name)
			if err != nil || def.Schema.Cols[j].Type == value.Float {
				continue keys
			}
			lit, ok := boundLiteral(def, conj, j)
			if !ok {
				continue keys
			}
			pos[i], key[i] = j, lit
		}
		return pos, key
	}
	return nil, nil
}

// boundLiteral returns the literal a conjunct `col = literal` or
// `literal = col` binds column j of def to.
func boundLiteral(def *catalog.TableDef, conj []Scalar, j int) (value.Value, bool) {
	for _, c := range conj {
		b, ok := c.(BinExpr)
		if !ok || b.Op != "=" {
			continue
		}
		col, lok := b.L.(ColRef)
		lit, rok := b.R.(Literal)
		if !lok || !rok {
			col, lok = b.R.(ColRef)
			lit, rok = b.L.(Literal)
		}
		if lok && rok {
			if i, err := def.Schema.Resolve(col.Name); err == nil && i == j {
				return lit.V, true
			}
		}
	}
	return value.Value{}, false
}
