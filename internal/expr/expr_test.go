package expr

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// eval is the tree-walking reference evaluator Prog is held equal to:
// each node recurses into its children and each column is resolved by
// name on every call. And and Or stop at the term that decides them.
func eval(e Expr, s *catalog.Schema, t value.Tuple) value.Value {
	switch v := e.(type) {
	case Col:
		return t[s.MustResolve(v.Name)]
	case Lit:
		return v.V
	case Cmp:
		return cmpValues(v.Op, eval(v.L, s, t), eval(v.R, s, t))
	case Arith:
		return arithValues(v.Op, eval(v.L, s, t), eval(v.R, s, t))
	case And:
		for _, term := range v.Terms {
			if !eval(term, s, t).Truth() {
				return value.NewBool(false)
			}
		}
		return value.NewBool(true)
	case Or:
		return value.NewBool(eval(v.L, s, t).Truth() || eval(v.R, s, t).Truth())
	case Not:
		return value.NewBool(!eval(v.E, s, t).Truth())
	}
	panic(fmt.Sprintf("expr: no reference evaluation for %T", e))
}

func testSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Qualifier: "T", Name: "a", Type: value.Int},
		catalog.Column{Qualifier: "T", Name: "b", Type: value.Int},
		catalog.Column{Qualifier: "T", Name: "s", Type: value.String},
	)
}

func TestEvalBasics(t *testing.T) {
	s := testSchema()
	tup := value.Tuple{value.NewInt(3), value.NewInt(5), value.NewString("x")}
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{C("a"), value.NewInt(3)},
		{C("T.b"), value.NewInt(5)},
		{IntLit(7), value.NewInt(7)},
		{Arith{Op: Plus, L: C("a"), R: C("b")}, value.NewInt(8)},
		{Arith{Op: Times, L: C("a"), R: IntLit(2)}, value.NewInt(6)},
		{Compare(GT, C("b"), C("a")), value.NewBool(true)},
		{Compare(EQ, C("s"), StrLit("x")), value.NewBool(true)},
		{Compare(NE, C("s"), StrLit("x")), value.NewBool(false)},
		{AndOf(Compare(GT, C("b"), C("a")), Compare(EQ, C("a"), IntLit(3))), value.NewBool(true)},
		{Or{L: Compare(LT, C("b"), C("a")), R: Compare(EQ, C("a"), IntLit(3))}, value.NewBool(true)},
		{Not{E: Compare(LT, C("b"), C("a"))}, value.NewBool(true)},
	}
	for _, c := range cases {
		p, err := CompileProg(c.e, s)
		if err != nil {
			t.Fatalf("CompileProg(%s): %v", c.e, err)
		}
		if got := p.Eval(tup); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestCompileRejectsUnknownColumns(t *testing.T) {
	s := testSchema()
	if _, err := CompileProg(C("nope"), s); err == nil {
		t.Error("CompileProg of unknown column should fail")
	}
	if _, err := CompileProg(AndOf(Compare(EQ, C("nope"), IntLit(1))), s); err == nil {
		t.Error("CompileProg should propagate nested errors")
	}
}

func TestConjuncts(t *testing.T) {
	p := Compare(GT, C("a"), IntLit(0))
	q := Compare(LT, C("b"), IntLit(9))
	r := Compare(EQ, C("s"), StrLit("x"))
	e := AndOf(p, AndOf(q, r))
	got := Conjuncts(e)
	if len(got) != 3 {
		t.Fatalf("Conjuncts: got %d terms, want 3", len(got))
	}
	if len(Conjuncts(p)) != 1 {
		t.Error("single term should yield itself")
	}
}

func TestAndOfFlattensAndCanonicalizes(t *testing.T) {
	p := Compare(GT, C("a"), IntLit(0))
	q := Compare(LT, C("b"), IntLit(9))
	e1 := AndOf(p, q)
	e2 := AndOf(q, p)
	if e1.String() != e2.String() {
		t.Errorf("AND canonical form differs: %q vs %q", e1, e2)
	}
	if AndOf(p) != Expr(p) {
		t.Error("AndOf of one term should return the term")
	}
	empty, err := CompileProg(AndOf(), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Truth(value.Tuple{value.NewInt(0), value.NewInt(0), value.NewString("")}) {
		t.Error("empty AND should be TRUE")
	}
}

func TestColumnsOf(t *testing.T) {
	e := AndOf(
		Compare(GT, C("T.b"), C("T.a")),
		Compare(EQ, C("T.a"), IntLit(1)),
	)
	got := ColumnsOf(e)
	want := []string{"T.a", "T.b"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ColumnsOf = %v, want %v", got, want)
	}
}

func TestRefersOnly(t *testing.T) {
	s := testSchema()
	if !RefersOnly(Compare(EQ, C("a"), C("b")), s) {
		t.Error("a=b refers only to schema columns")
	}
	if RefersOnly(Compare(EQ, C("a"), C("other")), s) {
		t.Error("a=other should not resolve")
	}
}
