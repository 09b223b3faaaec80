// Package expr implements the scalar expression language used in
// selection predicates, join conditions, HAVING clauses and computed
// columns: column references, literals, arithmetic, comparisons and
// boolean connectives.
//
// Expressions are immutable trees. Canonical String() forms double as
// identity for the expression-DAG memo. A tree is evaluated only after
// CompileProg has resolved it against a schema: Prog is the package's
// one evaluator.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/value"
)

// Expr is a scalar expression tree; CompileProg makes it evaluable
// against tuples of a schema.
type Expr interface {
	// Columns appends the qualified names of all referenced columns.
	Columns(dst []string) []string
	// String returns the canonical rendering.
	String() string
}

// Col is a column reference by (possibly qualified) name.
type Col struct{ Name string }

// C is shorthand for a column reference.
func C(name string) Col { return Col{Name: name} }

// Columns implements Expr.
func (c Col) Columns(dst []string) []string { return append(dst, c.Name) }

// String implements Expr.
func (c Col) String() string { return c.Name }

// Lit is a literal constant.
type Lit struct{ V value.Value }

// IntLit returns an integer literal.
func IntLit(i int64) Lit { return Lit{V: value.NewInt(i)} }

// FloatLit returns a float literal.
func FloatLit(f float64) Lit { return Lit{V: value.NewFloat(f)} }

// StrLit returns a string literal.
func StrLit(s string) Lit { return Lit{V: value.NewString(s)} }

// Columns implements Expr.
func (l Lit) Columns(dst []string) []string { return dst }

// String implements Expr.
func (l Lit) String() string { return l.V.String() }

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	EQ CmpOp = "="
	NE CmpOp = "<>"
	LT CmpOp = "<"
	LE CmpOp = "<="
	GT CmpOp = ">"
	GE CmpOp = ">="
)

// Cmp is a binary comparison. A comparison involving NULL yields NULL
// (which is falsy in predicate position).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Compare builds a comparison expression.
func Compare(op CmpOp, l, r Expr) Cmp { return Cmp{Op: op, L: l, R: r} }

func cmpValues(op CmpOp, a, b value.Value) value.Value {
	if a.IsNull() || b.IsNull() {
		return value.NewNull()
	}
	r := value.Compare(a, b)
	var ok bool
	switch op {
	case EQ:
		ok = r == 0
	case NE:
		ok = r != 0
	case LT:
		ok = r < 0
	case LE:
		ok = r <= 0
	case GT:
		ok = r > 0
	case GE:
		ok = r >= 0
	}
	return value.NewBool(ok)
}

// Columns implements Expr.
func (c Cmp) Columns(dst []string) []string { return c.R.Columns(c.L.Columns(dst)) }

// String implements Expr.
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// ArithOp is an arithmetic operator.
type ArithOp byte

// Arithmetic operators.
const (
	Plus  ArithOp = '+'
	Minus ArithOp = '-'
	Times ArithOp = '*'
	Over  ArithOp = '/'
)

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func arithValues(op ArithOp, l, r value.Value) value.Value {
	switch op {
	case Plus:
		return value.Add(l, r)
	case Minus:
		return value.Sub(l, r)
	case Times:
		return value.Mul(l, r)
	case Over:
		return value.Div(l, r)
	default:
		return value.NewNull()
	}
}

// Columns implements Expr.
func (a Arith) Columns(dst []string) []string { return a.R.Columns(a.L.Columns(dst)) }

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %c %s)", a.L, a.Op, a.R)
}

// And is an n-ary conjunction; it stops at the first term that is not
// true.
type And struct{ Terms []Expr }

// AndOf builds a conjunction, flattening nested Ands; 0 terms means TRUE,
// 1 term returns the term itself.
func AndOf(terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		if a, ok := t.(And); ok {
			flat = append(flat, a.Terms...)
		} else if t != nil {
			flat = append(flat, t)
		}
	}
	switch len(flat) {
	case 0:
		return Lit{V: value.NewBool(true)}
	case 1:
		return flat[0]
	default:
		return And{Terms: flat}
	}
}

// Columns implements Expr.
func (a And) Columns(dst []string) []string {
	for _, t := range a.Terms {
		dst = t.Columns(dst)
	}
	return dst
}

// String implements Expr. Terms render sorted so logically identical
// conjunctions canonicalize identically.
func (a And) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	sort.Strings(parts)
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is a binary disjunction; it stops at a true left side.
type Or struct{ L, R Expr }

// Columns implements Expr.
func (o Or) Columns(dst []string) []string { return o.R.Columns(o.L.Columns(dst)) }

// String implements Expr.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is logical negation.
type Not struct{ E Expr }

// Columns implements Expr.
func (n Not) Columns(dst []string) []string { return n.E.Columns(dst) }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Conjuncts splits e into its top-level AND terms.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(And); ok {
		out := make([]Expr, 0, len(a.Terms))
		for _, t := range a.Terms {
			out = append(out, Conjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// ColumnsOf returns the deduplicated, sorted qualified column names
// referenced by e.
func ColumnsOf(e Expr) []string {
	cols := e.Columns(nil)
	seen := map[string]bool{}
	out := cols[:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// RefersOnly reports whether every column e references resolves in s.
func RefersOnly(e Expr, s *catalog.Schema) bool {
	for _, c := range e.Columns(nil) {
		if !s.Has(c) {
			return false
		}
	}
	return true
}
