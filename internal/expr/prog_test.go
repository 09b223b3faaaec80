package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

func progSchema() *catalog.Schema {
	return &catalog.Schema{Cols: []catalog.Column{
		{Name: "A", Type: value.Int},
		{Name: "B", Type: value.Int},
		{Name: "C", Type: value.Float},
		{Name: "D", Type: value.String},
		{Name: "E", Type: value.Bool},
	}}
}

// randExpr builds a random expression over the test schema, including
// NULL-producing comparisons, nested boolean structure and arithmetic.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return C([]string{"A", "B", "C", "D", "E"}[rng.Intn(5)])
		case 1:
			return IntLit(int64(rng.Intn(7) - 3))
		case 2:
			return FloatLit(float64(rng.Intn(5)) / 2)
		default:
			return StrLit([]string{"x", "y", ""}[rng.Intn(3)])
		}
	}
	switch rng.Intn(6) {
	case 0:
		ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
		return Compare(ops[rng.Intn(len(ops))], randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 1:
		ops := []ArithOp{Plus, Minus, Times, Over}
		return Arith{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 2:
		n := 1 + rng.Intn(3)
		terms := make([]Expr, n)
		for i := range terms {
			terms[i] = randExpr(rng, depth-1)
		}
		return And{Terms: terms}
	case 3:
		return Or{L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 4:
		return Not{E: randExpr(rng, depth-1)}
	default:
		return randExpr(rng, 0)
	}
}

func randTuple(rng *rand.Rand) value.Tuple {
	pick := func() value.Value {
		switch rng.Intn(5) {
		case 0:
			return value.NewInt(int64(rng.Intn(9) - 4))
		case 1:
			return value.NewFloat(float64(rng.Intn(9)) / 2)
		case 2:
			return value.NewString([]string{"x", "y", ""}[rng.Intn(3)])
		case 3:
			return value.NewBool(rng.Intn(2) == 0)
		default:
			return value.NewNull()
		}
	}
	return value.Tuple{pick(), pick(), pick(), pick(), pick()}
}

// TestProgDifferential pits the flat program against the tree-walking
// reference evaluator on random expressions and tuples: values
// (including NULL propagation and truthiness short-circuits) must agree
// exactly.
func TestProgDifferential(t *testing.T) {
	s := progSchema()
	rng := rand.New(rand.NewSource(0xE15A))
	exprs := 0
	for i := 0; i < 400; i++ {
		e := randExpr(rng, 1+rng.Intn(4))
		prog, err := CompileProg(e, s)
		if err != nil {
			t.Fatalf("CompileProg(%s): %v", e, err)
		}
		exprs++
		for j := 0; j < 50; j++ {
			tu := randTuple(rng)
			got, want := prog.Eval(tu), eval(e, s, tu)
			if !sameValue(got, want) {
				t.Fatalf("expr %s on %s: prog=%v reference=%v", e, tu, got, want)
			}
			if prog.Truth(tu) != want.Truth() {
				t.Fatalf("expr %s on %s: Truth mismatch", e, tu)
			}
		}
	}
	if exprs == 0 {
		t.Fatal("no expressions exercised")
	}
}

// sameValue reports whether a and b are the same value: same kind, same
// payload, a float compared bit for bit (so NaN equals NaN and nothing
// else).
func sameValue(a, b value.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func TestProgShortCircuit(t *testing.T) {
	s := progSchema()
	// (A = 1 AND B = 2) with A mismatching must not evaluate B — observable
	// through division: AND short-circuits before 1/0.
	e := AndOf(
		Compare(EQ, C("A"), IntLit(99)),
		Compare(EQ, Arith{Op: Over, L: IntLit(1), R: IntLit(0)}, IntLit(1)),
	)
	prog, err := CompileProg(e, s)
	if err != nil {
		t.Fatal(err)
	}
	tu := value.Tuple{value.NewInt(1), value.NewInt(2), value.NewFloat(0), value.NewString(""), value.NewBool(false)}
	if prog.Eval(tu).Truth() {
		t.Fatal("AND with false first term evaluated true")
	}
	// Division by zero yields NULL (per value.Div), so even when reached
	// the result must mirror the reference.
	e2 := AndOf(
		Compare(EQ, C("A"), IntLit(1)),
		Compare(EQ, Arith{Op: Over, L: IntLit(1), R: IntLit(0)}, IntLit(1)),
	)
	prog2, _ := CompileProg(e2, s)
	if prog2.Eval(tu).Truth() != eval(e2, s, tu).Truth() {
		t.Fatal("NULL-producing second term diverged from the reference")
	}
}

// TestCompileProgResolutionError pins CompileProg's one failure: an
// unresolvable column, however deeply nested.
func TestCompileProgResolutionError(t *testing.T) {
	s := progSchema()
	bad := AndOf(Compare(GT, C("A"), IntLit(0)), Not{E: C("NoSuchCol")})
	if _, err := CompileProg(bad, s); err == nil {
		t.Fatal("CompileProg resolved a nonexistent column")
	}
	p, err := CompileProg(Compare(GT, C("A"), IntLit(0)), s)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Eval(value.Tuple{value.NewInt(1)}).Truth() {
		t.Fatal("CompileProg evaluator wrong")
	}
}

func BenchmarkProgEval(b *testing.B) {
	s := progSchema()
	e := AndOf(
		Compare(GT, C("A"), IntLit(0)),
		Compare(LT, C("B"), IntLit(10)),
		Compare(GE, Arith{Op: Plus, L: C("A"), R: C("B")}, IntLit(2)),
	)
	tu := value.Tuple{value.NewInt(3), value.NewInt(4), value.NewFloat(0), value.NewString("x"), value.NewBool(true)}
	p, _ := CompileProg(e, s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Eval(tu)
	}
}
