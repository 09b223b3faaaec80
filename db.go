// Package mvmaint (module "repro") is the public API of this
// reproduction of Ross, Srivastava & Sudarshan, "Materialized View
// Maintenance and Integrity Constraint Checking: Trading Space for Time"
// (SIGMOD 1996).
//
// The workflow mirrors the paper:
//
//  1. Open a DB and Exec DDL/DML to define base relations, load data, and
//     declare views (CREATE VIEW) and assertions (CREATE ASSERTION ...
//     CHECK (NOT EXISTS ...)).
//  2. Build a System for the views/assertions you want maintained, with a
//     workload of weighted transaction types. Build grows the expression
//     DAG with equivalence rules and runs the view-set optimizer
//     (Algorithm OptimalViewSet, the Shielding decomposition, or one of
//     the Section 5 heuristics) to pick the additional views to
//     materialize.
//  3. Execute transactions; the system maintains every materialized view
//     incrementally along cost-chosen update tracks and checks the
//     assertions, optionally rolling back violators. Page I/O is
//     accounted exactly as in the paper's Section 3.6.
package mvmaint

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/txn"
)

// DB is a database instance: catalog, storage, and the SQL front end with
// its view/assertion registry.
type DB struct {
	Catalog *catalog.Catalog
	Store   *storage.Store

	translator *sqlparser.Translator
	views      map[string]algebra.Node
	assertions map[string]algebra.Node
	order      []string
}

// Open returns an empty database.
func Open() *DB {
	cat := catalog.New()
	return &DB{
		Catalog:    cat,
		Store:      storage.NewStore(),
		translator: sqlparser.NewTranslator(cat),
		views:      map[string]algebra.Node{},
		assertions: map[string]algebra.Node{},
	}
}

// Exec runs a script of DDL and DML statements: CREATE TABLE / INDEX /
// VIEW / ASSERTION, INSERT, DELETE, UPDATE. DML here applies directly to
// base relations without view maintenance (use a System for maintained
// execution); it is intended for initial population.
func (db *DB) Exec(sql string) error {
	stmts, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if err := db.exec(s); err != nil {
			return err
		}
	}
	return nil
}

// MustExec is Exec that panics on error (setup code, examples).
func (db *DB) MustExec(sql string) {
	if err := db.Exec(sql); err != nil {
		panic(err)
	}
}

func (db *DB) exec(s sqlparser.Statement) error {
	switch t := s.(type) {
	case *sqlparser.CreateTable:
		def := sqlparser.TableDefFrom(t)
		if err := db.Catalog.Add(def); err != nil {
			return err
		}
		_, err := db.Store.Create(def)
		return err
	case *sqlparser.CreateIndex:
		def, ok := db.Catalog.Get(t.Table)
		if !ok {
			return fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		def.Indexes = append(def.Indexes, catalog.IndexDef{Name: t.Name, Columns: t.Columns})
		// Rebuild storage with the new index, keeping contents.
		rel := db.Store.MustGet(t.Table)
		rows := rel.Snapshot()
		nrel, err := db.Store.Create(def)
		if err != nil {
			return err
		}
		nrel.Load(rows)
		return nil
	case *sqlparser.CreateView:
		tree, err := db.translator.TranslateView(t)
		if err != nil {
			return err
		}
		db.views[t.Name] = tree
		db.order = append(db.order, t.Name)
		return nil
	case *sqlparser.CreateAssertion:
		tree, err := db.translator.TranslateAssertion(t)
		if err != nil {
			return err
		}
		db.assertions[t.Name] = tree
		db.order = append(db.order, t.Name)
		return nil
	case *sqlparser.Insert:
		def, ok := db.Catalog.Get(t.Table)
		if !ok {
			return fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		d, err := sqlparser.InsertDelta(def, t)
		if err != nil {
			return err
		}
		rel := db.Store.MustGet(t.Table)
		applyUncharged(rel, d)
		return nil
	case *sqlparser.Delete:
		rel, ok := db.Store.Get(t.Table)
		if !ok {
			return fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		d, err := sqlparser.DeleteDelta(db.translator, rel, t)
		if err != nil {
			return err
		}
		applyUncharged(rel, d)
		return nil
	case *sqlparser.Update:
		rel, ok := db.Store.Get(t.Table)
		if !ok {
			return fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		d, err := sqlparser.UpdateDelta(db.translator, rel, t)
		if err != nil {
			return err
		}
		applyUncharged(rel, d)
		return nil
	case *sqlparser.SelectStmt:
		return fmt.Errorf("mvmaint: use DB.Query for SELECT")
	default:
		return fmt.Errorf("mvmaint: unsupported statement %T", s)
	}
}

func applyUncharged(rel *storage.Relation, d *delta.Delta) {
	was := rel.Resident
	rel.Resident = true
	rel.ApplyBatch(d.ToMutations())
	rel.Resident = was
}

// Query evaluates a SELECT statement (or a defined view by `SELECT *
// FROM viewname`) and returns its rows; evaluation is uncharged.
func (db *DB) Query(sql string) (*exec.Result, error) {
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("mvmaint: Query expects SELECT, got %T", stmt)
	}
	tree, err := db.translator.TranslateSelect(sel)
	if err != nil {
		return nil, err
	}
	return exec.NewFree(db.Store).Eval(tree)
}

// View returns the algebra tree of a defined view or assertion.
func (db *DB) View(name string) (algebra.Node, bool) {
	if v, ok := db.views[name]; ok {
		return v, true
	}
	v, ok := db.assertions[name]
	return v, ok
}

// IsAssertion reports whether the name was declared as an assertion.
func (db *DB) IsAssertion(name string) bool {
	_, ok := db.assertions[name]
	return ok
}

// ViewNames returns the declared view and assertion names in order.
func (db *DB) ViewNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// RefreshStats brings the statistics of every stored relation up to
// date: a relation that has not changed since its last refresh is not
// rescanned. Exec does not refresh per statement; Build, Reoptimize and
// BuildSharded call this before costing, which is the only time the
// statistics are read.
func (db *DB) RefreshStats() {
	for _, name := range db.Store.Names() {
		db.Store.MustGet(name).RefreshStats()
	}
}

// TxnFromSQL parses one DML statement into a transaction type plus its
// delta, ready for maintained execution by a System. The transaction-type
// name encodes relation, kind and modified columns so maintenance plans
// are cached across repeated statements of the same shape.
func (db *DB) TxnFromSQL(sql string) (*txn.Type, map[string]*delta.Delta, error) {
	stmt, err := sqlparser.ParseOne(sql)
	if err != nil {
		return nil, nil, err
	}
	switch t := stmt.(type) {
	case *sqlparser.Insert:
		def, ok := db.Catalog.Get(t.Table)
		if !ok {
			return nil, nil, fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		d, err := sqlparser.InsertDelta(def, t)
		if err != nil {
			return nil, nil, err
		}
		ty := &txn.Type{
			Name: "insert:" + t.Table, Weight: 1,
			Updates: []txn.RelUpdate{{Rel: t.Table, Kind: txn.Insert, Size: float64(d.Size())}},
		}
		return ty, map[string]*delta.Delta{t.Table: d}, nil
	case *sqlparser.Delete:
		rel, ok := db.Store.Get(t.Table)
		if !ok {
			return nil, nil, fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		d, err := sqlparser.DeleteDelta(db.translator, rel, t)
		if err != nil {
			return nil, nil, err
		}
		ty := &txn.Type{
			Name: "delete:" + t.Table, Weight: 1,
			Updates: []txn.RelUpdate{{Rel: t.Table, Kind: txn.Delete, Size: maxf(1, float64(d.Size()))}},
		}
		return ty, map[string]*delta.Delta{t.Table: d}, nil
	case *sqlparser.Update:
		rel, ok := db.Store.Get(t.Table)
		if !ok {
			return nil, nil, fmt.Errorf("mvmaint: unknown table %q", t.Table)
		}
		d, err := sqlparser.UpdateDelta(db.translator, rel, t)
		if err != nil {
			return nil, nil, err
		}
		cols := sqlparser.ModifiedColumns(t)
		ty := &txn.Type{
			Name: "update:" + t.Table + ":" + fmt.Sprint(cols), Weight: 1,
			Updates: []txn.RelUpdate{{
				Rel: t.Table, Kind: txn.Modify,
				Size: maxf(1, float64(d.Size())), Cols: cols,
			}},
		}
		return ty, map[string]*delta.Delta{t.Table: d}, nil
	default:
		return nil, nil, fmt.Errorf("mvmaint: not a DML statement: %T", stmt)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
