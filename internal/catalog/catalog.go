package catalog

import (
	"fmt"
	"sort"
)

// Stats carries the statistics the cost model and delta-size estimator
// need about a stored relation or view. All figures are estimates; the
// storage engine recomputes them when an optimizer is about to read them
// (Build, Reoptimize, Recover), not per statement.
type Stats struct {
	// Card is the number of tuples.
	Card float64
	// Distinct maps a bare column name to its number of distinct values.
	// Missing entries default to Card (i.e., assume unique).
	Distinct map[string]float64
	// Fanout maps a bare column name to the number of tuples sharing a
	// value of that column as a random tuple sees it: Σ n_k² / Σ n_k over
	// the column's value counts n_k. A delete, modify or join probe lands
	// on an existing tuple, so its value is drawn in proportion to how
	// many tuples carry it; on a column whose values all occur equally
	// often this is exactly Card/Distinct, and skew only raises it.
	// Missing entries mean "no better figure than Card/Distinct".
	Fanout map[string]float64
}

// DistinctOf returns the distinct-value count for a column, defaulting to
// the relation cardinality (and at least 1).
func (s Stats) DistinctOf(col string) float64 {
	if s.Distinct != nil {
		if d, ok := s.Distinct[col]; ok && d > 0 {
			return d
		}
	}
	if s.Card < 1 {
		return 1
	}
	return s.Card
}

// IndexDef declares a hash index on one or more columns of a relation.
// The paper's examples use single-column hash indexes on DName.
type IndexDef struct {
	Name    string
	Columns []string
}

// TableDef is the catalog entry for a base relation or a materialized
// view's backing store.
type TableDef struct {
	Name    string
	Schema  *Schema
	Keys    [][]string // candidate keys, each a set of bare column names
	Indexes []IndexDef
	Stats   Stats
}

// HasKey reports whether cols (bare names) is a superset of some declared
// candidate key — i.e., whether cols functionally determines the tuple.
func (t *TableDef) HasKey(cols []string) bool {
	set := map[string]bool{}
	for _, c := range cols {
		set[bare(c)] = true
	}
	for _, key := range t.Keys {
		all := true
		for _, k := range key {
			if !set[k] {
				all = false
				break
			}
		}
		if all && len(key) > 0 {
			return true
		}
	}
	return false
}

// IndexOn reports whether the relation has a hash index whose columns are
// exactly cols (order-insensitive, bare names).
func (t *TableDef) IndexOn(cols []string) bool {
	want := normalize(cols)
	for _, ix := range t.Indexes {
		if equalStringSets(normalize(ix.Columns), want) {
			return true
		}
	}
	return false
}

func bare(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

func normalize(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = bare(c)
	}
	sort.Strings(out)
	return out
}

func equalStringSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Catalog is the collection of table definitions known to a database.
type Catalog struct {
	tables map[string]*TableDef
	order  []string
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*TableDef{}}
}

// Add registers a table definition. It is an error to register the same
// name twice.
func (c *Catalog) Add(def *TableDef) error {
	if _, ok := c.tables[def.Name]; ok {
		return fmt.Errorf("catalog: relation %q already exists", def.Name)
	}
	c.tables[def.Name] = def
	c.order = append(c.order, def.Name)
	return nil
}

// Drop removes a table definition.
func (c *Catalog) Drop(name string) {
	if _, ok := c.tables[name]; !ok {
		return
	}
	delete(c.tables, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Get looks up a table definition.
func (c *Catalog) Get(name string) (*TableDef, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// MustGet looks up a table definition, panicking if absent.
func (c *Catalog) MustGet(name string) *TableDef {
	t, ok := c.tables[name]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown relation %q", name))
	}
	return t
}

// Names returns the registered relation names in registration order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}
