package value

import (
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewNull(), NewInt(0), -1},
		{NewInt(0), NewNull(), 1},
		{NewNull(), NewNull(), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// genValue produces an arbitrary Value for property tests.
func genValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return NewNull()
	case 1:
		return NewInt(int64(r.Intn(21) - 10))
	case 2:
		return NewFloat(float64(r.Intn(21)-10) / 2)
	case 3:
		return NewString(string(rune('a' + r.Intn(4))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genValue(r))
			args[1] = reflect.ValueOf(genValue(r))
			args[2] = reflect.ValueOf(genValue(r))
		},
	}
	// Antisymmetry and transitivity of the order.
	prop := func(a, b, c Value) bool {
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		if Compare(a, a) != 0 {
			return false
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(NewInt(2), NewInt(3)); got != NewInt(5) {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(NewInt(2), NewFloat(0.5)); got != NewFloat(2.5) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Sub(NewInt(2), NewInt(3)); got != NewInt(-1) {
		t.Errorf("2-3 = %v", got)
	}
	if got := Mul(NewInt(4), NewInt(3)); got != NewInt(12) {
		t.Errorf("4*3 = %v", got)
	}
	if got := Div(NewInt(3), NewInt(2)); got != NewFloat(1.5) {
		t.Errorf("3/2 = %v", got)
	}
	if got := Div(NewInt(3), NewInt(0)); !got.IsNull() {
		t.Errorf("3/0 = %v, want NULL", got)
	}
	if got := Add(NewNull(), NewInt(1)); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  NewNull(),
		"42":    NewInt(42),
		"1.5":   NewFloat(1.5),
		"'hi'":  NewString("hi"),
		"TRUE":  NewBool(true),
		"FALSE": NewBool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestTruth(t *testing.T) {
	if !NewBool(true).Truth() {
		t.Error("TRUE should be truthy")
	}
	for _, v := range []Value{NewBool(false), NewNull(), NewInt(1), NewString("t")} {
		if v.Truth() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func genTuple(r *rand.Rand) Tuple {
	n := r.Intn(4)
	t := make(Tuple, n)
	for i := range t {
		t[i] = genValue(r)
	}
	return t
}

func TestTupleKeyAgreesWithEqual(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 4000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genTuple(r))
			args[1] = reflect.ValueOf(genTuple(r))
		},
	}
	// Key equality must coincide with tuple equality for same-kind
	// tuples; for mixed numeric kinds Key intentionally distinguishes
	// (the executor normalizes), so restrict the check to exact equality.
	prop := func(a, b Tuple) bool {
		if a.Key() == b.Key() {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTupleCompareLexicographic(t *testing.T) {
	a := Tuple{NewInt(1), NewString("b")}
	b := Tuple{NewInt(1), NewString("c")}
	if a.Compare(b) >= 0 {
		t.Error("(1,b) should sort before (1,c)")
	}
	short := Tuple{NewInt(1)}
	if short.Compare(a) >= 0 {
		t.Error("prefix should sort before longer tuple")
	}
	if a.Compare(a) != 0 {
		t.Error("tuple should equal itself")
	}
}

func TestTupleProjectAndClone(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x"), NewFloat(2.5)}
	p := a.Project([]int{2, 0})
	want := Tuple{NewFloat(2.5), NewInt(1)}
	if !p.Equal(want) {
		t.Errorf("Project = %v, want %v", p, want)
	}
	c := a.Clone()
	c[0] = NewInt(9)
	if a[0] != NewInt(1) {
		t.Error("Clone must not alias the original")
	}
}

func TestTupleKeyInjectiveOnStrings(t *testing.T) {
	// Adjacent strings must not collide through the length-prefixed
	// encoding: ("ab","c") vs ("a","bc").
	a := Tuple{NewString("ab"), NewString("c")}
	b := Tuple{NewString("a"), NewString("bc")}
	if a.Key() == b.Key() {
		t.Error("string boundary collision in Tuple.Key")
	}
}

// TestArithmeticLaws: quick-check algebraic laws of the numeric model
// (commutativity, associativity on ints, identity, NULL absorption).
func TestArithmeticLaws(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 3000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(NewInt(int64(r.Intn(201) - 100)))
			}
		},
	}
	prop := func(a, b, c Value) bool {
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			return false
		}
		if Add(a, NewInt(0)) != a || Mul(a, NewInt(1)) != a {
			return false
		}
		if !Add(a, NewNull()).IsNull() || !Mul(NewNull(), b).IsNull() ||
			!Sub(a, NewNull()).IsNull() || !Div(NewNull(), b).IsNull() {
			return false
		}
		// Sub is the inverse of Add.
		if Sub(Add(a, b), b) != a {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCompareConsistentWithArithmetic: a < b implies a+c < b+c.
func TestCompareConsistentWithArithmetic(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(NewInt(int64(r.Intn(201) - 100)))
			}
		},
	}
	prop := func(a, b, c Value) bool {
		return Compare(a, b) == Compare(Add(a, c), Add(b, c))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCoerce(t *testing.T) {
	for _, c := range []struct {
		v    Value
		kind Kind
		want Value
	}{
		{NewFloat(1), Int, NewInt(1)},
		{NewFloat(math.Copysign(0, -1)), Int, NewInt(0)},
		{NewFloat(2.5), Int, NewFloat(2.5)},
		{NewFloat(math.Ldexp(1, 63)), Int, NewFloat(math.Ldexp(1, 63))},
		{NewFloat(math.NaN()), Int, NewFloat(math.NaN())},
		{NewInt(3), Float, NewFloat(3)},
		{NewInt(3), Int, NewInt(3)},
		{NewNull(), Int, NewNull()},
		{NewString("1"), Int, NewString("1")},
	} {
		if got := Coerce(c.v, c.kind); !Same(got, c.want) {
			t.Errorf("Coerce(%v %v, %v) = %v %v, want %v %v", c.v.Kind, c.v, c.kind, got.Kind, got, c.want.Kind, c.want)
		}
	}
}

// TestHashSame: tuples that are Same column by column hash alike, built
// from separate strings; tuples that only compare Equal are not Same.
func TestHashSame(t *testing.T) {
	seed := maphash.MakeSeed()
	negZero := NewFloat(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b Tuple
		same bool
	}{
		{Tuple{NewInt(7), NewString("ab")}, Tuple{NewInt(7), NewString(string([]byte("ab")))}, true},
		{Tuple{NewFloat(math.NaN()), NewNull(), NewBool(true)}, Tuple{NewFloat(math.NaN()), NewNull(), NewBool(true)}, true},
		{Tuple{NewInt(1)}, Tuple{NewFloat(1)}, false},
		{Tuple{NewFloat(0)}, Tuple{negZero}, false},
		{Tuple{NewInt(0)}, Tuple{NewNull()}, false},
		{Tuple{NewInt(1)}, Tuple{NewInt(1), NewInt(1)}, false},
	} {
		if got := SameTuple(c.a, c.b); got != c.same {
			t.Errorf("SameTuple(%v, %v) = %v, want %v", c.a, c.b, got, c.same)
		}
		if c.same && HashSame(c.a, seed) != HashSame(c.b, seed) {
			t.Errorf("HashSame(%v) != HashSame(%v)", c.a, c.b)
		}
	}
}
