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
// contents, uncharged, and returns the deletions.
func DeleteDelta(tr *Translator, rel *storage.Relation, del *Delete) (*delta.Delta, error) {
	d := delta.New(rel.Def.Schema)
	match, err := compileWhere(tr, rel, del.Where)
	if err != nil {
		return nil, err
	}
	for _, row := range rel.ScanFree() {
		if match(row.Tuple) {
			d.Delete(row.Tuple.Clone(), row.Count)
		}
	}
	return d, nil
}

// UpdateDelta evaluates UPDATE's WHERE and SET against the current
// contents, uncharged, and returns paired modifications.
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
	for _, row := range rel.ScanFree() {
		if !match(row.Tuple) {
			continue
		}
		newT := row.Tuple.Clone()
		for _, s := range setters {
			newT[s.pos] = s.p.Eval(row.Tuple)
		}
		d.Modify(row.Tuple.Clone(), newT, row.Count)
	}
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
