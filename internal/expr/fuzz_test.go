package expr

import (
	"testing"

	"repro/internal/value"
)

// fuzzBytes hands the fuzz input out one byte at a time, and zeros once
// it runs out, so every input decodes to some expression and tuple.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// value decodes a kind byte and a payload byte.
func (b *fuzzBytes) value() value.Value {
	switch b.next() % 5 {
	case 0:
		return value.NewNull()
	case 1:
		return value.NewInt(int64(int8(b.next())))
	case 2:
		return value.NewFloat(float64(int8(b.next())) / 4)
	case 3:
		return value.NewString([]string{"x", "y", ""}[b.next()%3])
	default:
		return value.NewBool(b.next()%2 == 1)
	}
}

// expr decodes an expression over progSchema's columns: a node byte,
// then the node's operator and operands. Below depth 0 only columns and
// literals are decoded.
func (b *fuzzBytes) expr(depth int) Expr {
	c := b.next()
	if depth <= 0 {
		c %= 2
	}
	switch c % 7 {
	case 0:
		return C([]string{"A", "B", "C", "D", "E"}[b.next()%5])
	case 1:
		return Lit{V: b.value()}
	case 2:
		op := []CmpOp{EQ, NE, LT, LE, GT, GE}[b.next()%6]
		return Compare(op, b.expr(depth-1), b.expr(depth-1))
	case 3:
		op := []ArithOp{Plus, Minus, Times, Over}[b.next()%4]
		return Arith{Op: op, L: b.expr(depth - 1), R: b.expr(depth - 1)}
	case 4:
		terms := make([]Expr, 1+b.next()%3)
		for i := range terms {
			terms[i] = b.expr(depth - 1)
		}
		return And{Terms: terms}
	case 5:
		return Or{L: b.expr(depth - 1), R: b.expr(depth - 1)}
	default:
		return Not{E: b.expr(depth - 1)}
	}
}

// FuzzProg decodes the input into an expression over the five-column
// test schema and a tuple of it. CompileProg must accept the expression,
// and Prog.Eval — run twice, so the reused stack is exercised — must
// equal the reference evaluator in value, NULL-ness and truth.
func FuzzProg(f *testing.F) {
	// A = 99 AND 1/0 = 1, with A = 1: the AND stops before the division.
	f.Add([]byte{4, 1, 2, 0, 0, 0, 1, 1, 99, 2, 0, 3, 3, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1})
	// The same with A = 99: the division is reached and yields NULL.
	f.Add([]byte{4, 1, 2, 0, 0, 0, 1, 1, 99, 2, 0, 3, 3, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 99})
	// A = 1 OR 1/0 = 1, with A = 1: the OR stops before the division.
	f.Add([]byte{5, 2, 0, 0, 0, 1, 1, 1, 2, 0, 3, 3, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1})
	// A / B with B = 0, and C / 0.0 over a float column.
	f.Add([]byte{3, 3, 0, 0, 0, 1, 1, 5, 1, 0})
	f.Add([]byte{3, 3, 0, 2, 1, 2, 0, 0, 0, 2, 4})
	// NOT (NULL < B): a NULL comparison is falsy, so its negation is true.
	f.Add([]byte{6, 2, 2, 1, 0, 0, 1})
	s := progSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		b := fuzzBytes(data)
		e := b.expr(6)
		tu := value.Tuple{b.value(), b.value(), b.value(), b.value(), b.value()}
		p, err := CompileProg(e, s)
		if err != nil {
			t.Fatalf("CompileProg(%s): %v", e, err)
		}
		want := eval(e, s, tu)
		for run := 0; run < 2; run++ {
			got := p.Eval(tu)
			if !sameValue(got, want) || got.IsNull() != want.IsNull() {
				t.Fatalf("run %d: %s on %s: prog=%v reference=%v", run, e, tu, got, want)
			}
			if p.Truth(tu) != want.Truth() {
				t.Fatalf("run %d: %s on %s: Truth %v, reference %v", run, e, tu, !want.Truth(), want.Truth())
			}
		}
	})
}
