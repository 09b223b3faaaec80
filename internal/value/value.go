// Package value defines the scalar value and tuple model shared by every
// layer of the system: the storage engine, the query executor, the delta
// propagation machinery and the SQL front end.
//
// Values are 32-byte comparable structs, so they can be used directly as
// map keys (hash-index buckets, group-by keys). Tuples are slices of
// values with an explicit stable encoding for use as composite keys.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// The supported scalar kinds. Null is its own kind, as in SQL.
const (
	Null Kind = iota
	Int
	Float
	String
	Bool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar database value. The zero Value is NULL.
//
// Only the field matching Kind is meaningful, and the others are zero:
// B for a Bool, I for an Int, S for a String, and for a Float its
// IEEE-754 bits in I (read them through F). Kind and B share the first
// word, so a Value is Size bytes, which every stored, scanned and
// propagated tuple pays per column.
//
// Value is comparable (usable as a map key), and == is Same: the same
// kind and the same bits. Two Floats are == only bit for bit, so +0.0
// and −0.0 differ, and a NaN equals a NaN with its payload; an Int never
// == a Float. Equal is the numeric comparison.
type Value struct {
	Kind Kind
	B    bool
	I    int64
	S    string
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{Kind: Int, I: i} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{Kind: Float, I: int64(math.Float64bits(f))} }

// NewString returns a String value.
func NewString(s string) Value { return Value{Kind: String, S: s} }

// NewBool returns a Bool value.
func NewBool(b bool) Value { return Value{Kind: Bool, B: b} }

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// F returns a Float's number. It is meaningless for any other kind.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == Null }

// AsFloat returns the numeric value of v as a float64.
// It is 0 for non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case Int:
		return float64(v.I)
	case Float:
		return v.F()
	default:
		return 0
	}
}

// AsInt returns the numeric value of v as an int64 (truncating floats).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case Int:
		return v.I
	case Float:
		return int64(v.F())
	default:
		return 0
	}
}

// Coerce returns v as a column declared kind stores it: an Int in a
// FLOAT column becomes that Float, and a Float with an integral value in
// an INT column that Int (−0.0 is 0). Anything else is v. Within one
// column, then, two numbers Equal calls equal also encode alike — a FLOAT
// column's +0.0 and −0.0 aside — which is what joins and groups on the
// column count on (DESIGN.md §7).
func Coerce(v Value, kind Kind) Value {
	switch {
	case kind == Float && v.Kind == Int:
		return NewFloat(float64(v.I))
	case kind == Int && v.Kind == Float:
		if f := v.F(); f == math.Trunc(f) && math.Abs(f) < 1<<63 {
			return NewInt(int64(f))
		}
	}
	return v
}

// Truth reports whether v is a true boolean. NULL and non-booleans are
// false, mirroring SQL's treatment of unknown in WHERE clauses.
func (v Value) Truth() bool { return v.Kind == Bool && v.B }

// String renders the value for humans (and for canonical labels).
func (v Value) String() string {
	switch v.Kind {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case String:
		return "'" + v.S + "'"
	case Bool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// numericKinds reports whether both values are numeric (Int or Float).
func numericKinds(a, b Value) bool {
	return (a.Kind == Int || a.Kind == Float) && (b.Kind == Int || b.Kind == Float)
}

// Compare orders two values: -1 if a < b, 0 if equal, +1 if a > b.
// NULL sorts before everything; cross-kind numeric comparison is by
// float value; otherwise kinds order values (NULL < numbers < strings <
// bools), which gives a total order adequate for sorting and grouping.
func Compare(a, b Value) int {
	if a.Kind == Null || b.Kind == Null {
		switch {
		case a.Kind == Null && b.Kind == Null:
			return 0
		case a.Kind == Null:
			return -1
		default:
			return 1
		}
	}
	if numericKinds(a, b) {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case String:
		return strings.Compare(a.S, b.S)
	case Bool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// Equal reports whether two values compare equal (numeric cross-kind
// equality included; NULL equals NULL for grouping purposes).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Add returns a+b with numeric promotion (Int+Int=Int, otherwise Float).
// Any NULL operand yields NULL.
func Add(a, b Value) Value { return arith(a, b, '+') }

// Sub returns a-b with numeric promotion.
func Sub(a, b Value) Value { return arith(a, b, '-') }

// Mul returns a*b with numeric promotion.
func Mul(a, b Value) Value { return arith(a, b, '*') }

// Div returns a/b as Float; division by zero yields NULL.
func Div(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return NewNull()
	}
	if b.AsFloat() == 0 {
		return NewNull()
	}
	return NewFloat(a.AsFloat() / b.AsFloat())
}

func arith(a, b Value, op byte) Value {
	if a.IsNull() || b.IsNull() {
		return NewNull()
	}
	if a.Kind == Int && b.Kind == Int {
		switch op {
		case '+':
			return NewInt(a.I + b.I)
		case '-':
			return NewInt(a.I - b.I)
		case '*':
			return NewInt(a.I * b.I)
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return NewFloat(af + bf)
	case '-':
		return NewFloat(af - bf)
	case '*':
		return NewFloat(af * bf)
	}
	return NewNull()
}
