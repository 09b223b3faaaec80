package catalog

import (
	"testing"

	"repro/internal/value"
)

func deptSchema() *Schema {
	return NewSchema(
		Column{Qualifier: "Dept", Name: "DName", Type: value.String},
		Column{Qualifier: "Dept", Name: "MName", Type: value.String},
		Column{Qualifier: "Dept", Name: "Budget", Type: value.Int},
	)
}

func TestResolveQualifiedAndBare(t *testing.T) {
	s := deptSchema()
	if i, err := s.Resolve("Dept.Budget"); err != nil || i != 2 {
		t.Errorf("Resolve(Dept.Budget) = %d, %v", i, err)
	}
	if i, err := s.Resolve("Budget"); err != nil || i != 2 {
		t.Errorf("Resolve(Budget) = %d, %v", i, err)
	}
	if _, err := s.Resolve("Nope"); err == nil {
		t.Error("Resolve(Nope) should fail")
	}
}

func TestResolveAmbiguous(t *testing.T) {
	s := NewSchema(
		Column{Qualifier: "Emp", Name: "DName", Type: value.String},
		Column{Qualifier: "Dept", Name: "DName", Type: value.String},
	)
	if _, err := s.Resolve("DName"); err == nil {
		t.Error("bare DName should be ambiguous")
	}
	if i, err := s.Resolve("Emp.DName"); err != nil || i != 0 {
		t.Errorf("Resolve(Emp.DName) = %d, %v", i, err)
	}
	if i, err := s.Resolve("Dept.DName"); err != nil || i != 1 {
		t.Errorf("Resolve(Dept.DName) = %d, %v", i, err)
	}
}

func TestConcatKeepsOrder(t *testing.T) {
	a := NewSchema(Column{Qualifier: "A", Name: "x"})
	b := NewSchema(Column{Qualifier: "B", Name: "y"})
	c := a.Concat(b)
	if c.Len() != 2 || c.Cols[0].QName() != "A.x" || c.Cols[1].QName() != "B.y" {
		t.Errorf("Concat = %s", c)
	}
	// Concat must not alias the inputs.
	c.Cols[0].Name = "z"
	if a.Cols[0].Name != "x" {
		t.Error("Concat aliased its input")
	}
}

func TestHasKey(t *testing.T) {
	def := &TableDef{
		Name:   "Dept",
		Schema: deptSchema(),
		Keys:   [][]string{{"DName"}},
	}
	if !def.HasKey([]string{"DName"}) {
		t.Error("DName should be a key")
	}
	if !def.HasKey([]string{"Dept.DName", "Budget"}) {
		t.Error("supersets of a key are keys")
	}
	if def.HasKey([]string{"Budget"}) {
		t.Error("Budget is not a key")
	}
	if def.HasKey(nil) {
		t.Error("empty set is never a key")
	}
}

func TestIndexOn(t *testing.T) {
	def := &TableDef{
		Name:    "Dept",
		Schema:  deptSchema(),
		Indexes: []IndexDef{{Name: "ix", Columns: []string{"DName"}}},
	}
	if !def.IndexOn([]string{"DName"}) {
		t.Error("index on DName should be found")
	}
	if !def.IndexOn([]string{"Dept.DName"}) {
		t.Error("qualified lookup should match bare index column")
	}
	if def.IndexOn([]string{"Budget"}) {
		t.Error("no index on Budget")
	}
}

func TestStats(t *testing.T) {
	s := Stats{Card: 10000, Distinct: map[string]float64{"DName": 1000}}
	if got := s.DistinctOf("DName"); got != 1000 {
		t.Errorf("DistinctOf(DName) = %g, want 1000", got)
	}
	if got := s.DistinctOf("EName"); got != 10000 {
		t.Errorf("DistinctOf(unknown) = %g, want Card", got)
	}
	empty := Stats{}
	if got := empty.DistinctOf("x"); got != 1 {
		t.Errorf("DistinctOf on empty stats = %g, want 1", got)
	}
}

func TestCatalogAddGetDrop(t *testing.T) {
	c := New()
	def := &TableDef{Name: "Dept", Schema: deptSchema()}
	if err := c.Add(def); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(def); err == nil {
		t.Error("duplicate Add should fail")
	}
	if got, ok := c.Get("Dept"); !ok || got != def {
		t.Error("Get(Dept) failed")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "Dept" {
		t.Errorf("Names = %v", names)
	}
	c.Drop("Dept")
	if _, ok := c.Get("Dept"); ok {
		t.Error("Dept should be dropped")
	}
	if len(c.Names()) != 0 {
		t.Error("Names should be empty after drop")
	}
}
