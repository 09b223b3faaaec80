package value

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"testing"
)

// TestValueSize pins the Value layout: Kind and B share a word, a
// Float's bits live in I, and every stored or propagated column costs
// 32 bytes.
func TestValueSize(t *testing.T) {
	if Size != 32 {
		t.Fatalf("value.Size = %d, want 32", Size)
	}
}

// edgeValues are the values whose answers a Float-in-I layout could
// change: signed zeros, NaN payloads, infinities, a denormal, Int/Float
// twins on either side of 2^53, the most negative Int, the empty string
// beside NULL, and both Bools.
var edgeValues = map[string]Value{
	"+0":      NewFloat(0),
	"-0":      NewFloat(math.Copysign(0, -1)),
	"nan1":    NewFloat(math.Float64frombits(0x7ff8000000000001)),
	"nan2":    NewFloat(math.Float64frombits(0x7ff8000000000002)),
	"+inf":    NewFloat(math.Inf(1)),
	"-inf":    NewFloat(math.Inf(-1)),
	"denorm":  NewFloat(math.SmallestNonzeroFloat64),
	"i0":      NewInt(0),
	"i1":      NewInt(1),
	"f1":      NewFloat(1),
	"i2^53":   NewInt(1 << 53),
	"i2^53+1": NewInt(1<<53 + 1),
	"f2^53":   NewFloat(1 << 53),
	"minint":  NewInt(math.MinInt64),
	"f-2^63":  NewFloat(-(1 << 63)),
	"empty":   NewString(""),
	"null":    NewNull(),
	"false":   NewBool(false),
	"true":    NewBool(true),
}

// TestEdgeValueAnswers holds Compare, Equal, Same, HashSame, the key
// encoding, EqualKey and the decode round trip to fixed answers on
// edgeValues. The answers are those of the 48-byte layout with a
// separate float64 field, so the table shows the layout moved none.
func TestEdgeValueAnswers(t *testing.T) {
	cases := []struct {
		a, b     string
		cmp      int
		same     bool
		equalKey bool // EqualKey encodes both alike
	}{
		{"+0", "-0", 0, false, true},
		{"+0", "i0", 0, false, true},
		{"-0", "i0", 0, false, true},
		{"nan1", "nan1", 0, true, true},
		{"nan1", "nan2", 0, false, false},
		{"nan1", "+0", 0, false, false}, // Compare calls NaN equal to every number
		{"nan1", "+inf", 0, false, false},
		{"+inf", "-inf", 1, false, false},
		{"+inf", "+inf", 0, true, true},
		{"denorm", "+0", 1, false, false},
		{"denorm", "-0", 1, false, false},
		{"i1", "f1", 0, false, true},
		{"i1", "i0", 1, false, false},
		{"i2^53", "i2^53+1", 0, false, true}, // both compare as 2^53
		{"i2^53+1", "f2^53", 0, false, true},
		{"i2^53", "f2^53", 0, false, true},
		{"minint", "f-2^63", 0, false, true},
		{"minint", "-inf", 1, false, false},
		{"minint", "i0", -1, false, false},
		{"empty", "null", 1, false, false},
		{"null", "null", 0, true, true},
		{"null", "-inf", -1, false, false},
		{"empty", "f1", 1, false, false},
		{"false", "true", -1, false, false},
		{"true", "true", 0, true, true},
		{"false", "null", 1, false, false},
		{"false", "empty", 1, false, false},
	}
	seed := maphash.MakeSeed()
	var enc KeyEncoder
	for _, c := range cases {
		a, b := edgeValues[c.a], edgeValues[c.b]
		if got := Compare(a, b); got != c.cmp {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.cmp)
		}
		if got := Compare(b, a); got != -c.cmp {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.b, c.a, got, -c.cmp)
		}
		if got := Equal(a, b); got != (c.cmp == 0) {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.cmp == 0)
		}
		if got := Same(a, b); got != c.same {
			t.Errorf("Same(%s, %s) = %v, want %v", c.a, c.b, got, c.same)
		}
		if got := HashSame(Tuple{a}, seed) == HashSame(Tuple{b}, seed); got != c.same {
			t.Errorf("HashSame(%s) == HashSame(%s) is %v, want %v", c.a, c.b, got, c.same)
		}
		ka := string(enc.Key(Tuple{a}))
		if got := ka == string(enc.Key(Tuple{b})); got != c.same {
			t.Errorf("Key(%s) == Key(%s) is %v, want %v", c.a, c.b, got, c.same)
		}
		ea := string(enc.EqualKey(Tuple{a}, []int{0}))
		if got := ea == string(enc.EqualKey(Tuple{b}, []int{0})); got != c.equalKey {
			t.Errorf("EqualKey(%s) == EqualKey(%s) is %v, want %v", c.a, c.b, got, c.equalKey)
		}
	}
	for name, v := range edgeValues {
		key := appendValue(nil, v)
		got, rest, err := DecodeValue(key)
		if err != nil || len(rest) != 0 || !Same(got, v) || !bytes.Equal(appendValue(nil, got), key) {
			t.Errorf("%s: DecodeValue(appendValue) = %v, %d bytes left, %v", name, got, len(rest), err)
		}
	}
}

// TestFloatBitsAreTheKey pins a Float's key payload to its IEEE-754
// bits, big-endian, NaN payload and sign of zero included.
func TestFloatBitsAreTheKey(t *testing.T) {
	for _, bits := range []uint64{0, 1 << 63, 0x7ff8000000000001, 0x7ff0000000000000, 1, 0x3ff0000000000000} {
		v := NewFloat(math.Float64frombits(bits))
		key := appendValue(nil, v)
		if len(key) != 10 || key[0] != byte(Float) || binary.BigEndian.Uint64(key[1:]) != bits || key[9] != 0xFF {
			t.Errorf("key of float bits %#x = % x", bits, key)
		}
		if got := math.Float64bits(v.F()); got != bits {
			t.Errorf("NewFloat(bits %#x).F() has bits %#x", bits, got)
		}
	}
}

// fuzzValue decodes one Value of any kind from the front of b: a kind
// byte, then eight bytes of Int or Float bits, a length byte and that
// many bytes of String, or one byte of Bool. Missing bytes read as zero.
func fuzzValue(b []byte) Value {
	next := func(n int) []byte {
		out := make([]byte, n)
		b = b[copy(out, b):]
		return out
	}
	switch next(1)[0] % 5 {
	case 1:
		return NewInt(int64(binary.BigEndian.Uint64(next(8))))
	case 2:
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(next(8))))
	case 3:
		return NewString(string(next(int(next(1)[0] % 16))))
	case 4:
		return NewBool(next(1)[0]%2 == 1)
	}
	return NewNull()
}

// FuzzValueOrder holds the value model's relations to one another on
// any two values, any float bit pattern included: Equal is Compare == 0
// (and Compare is antisymmetric), Same is == and is equal key bytes,
// Same values hash alike, and every value decodes from its key.
func FuzzValueOrder(f *testing.F) {
	nan := func(payload byte) []byte { return []byte{2, 0x7f, 0xf8, 0, 0, 0, 0, 0, payload} }
	f.Add(nan(1), nan(2))
	f.Add([]byte{2, 0x80, 0, 0, 0, 0, 0, 0, 0}, []byte{2})             // −0.0, +0.0
	f.Add([]byte{1, 0, 0x20, 0, 0, 0, 0, 0, 1}, []byte{2, 0x43, 0x40}) // 2^53+1, 2^53
	f.Add([]byte{1, 0x80}, []byte{2, 0xff, 0xf0})                      // MinInt64, −Inf
	f.Add([]byte{3, 0}, []byte{0})                                     // "", NULL
	f.Add([]byte{4, 0}, []byte{4, 1})
	f.Add([]byte{3, 2, 'a', 'b'}, []byte{3, 1, 'a'})
	seed := maphash.MakeSeed()
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := fuzzValue(x), fuzzValue(y)
		c := Compare(a, b)
		if Equal(a, b) != (c == 0) || Compare(b, a) != -c {
			t.Fatalf("Compare(%v, %v) = %d, Compare back %d, Equal %v", a, b, c, Compare(b, a), Equal(a, b))
		}
		ka, kb := AppendKey(nil, Tuple{a}), AppendKey(nil, Tuple{b})
		same := Same(a, b)
		if same != bytes.Equal(ka, kb) || same != (a == b) {
			t.Fatalf("Same(%v, %v) = %v, keys equal %v, == %v", a, b, same, bytes.Equal(ka, kb), a == b)
		}
		if same && HashSame(Tuple{a}, seed) != HashSame(Tuple{b}, seed) {
			t.Fatalf("Same values %v, %v hash apart", a, b)
		}
		for _, k := range [][]byte{ka, kb} {
			v, rest, err := DecodeValue(k)
			if err != nil || len(rest) != 0 || !bytes.Equal(appendValue(nil, v), k) {
				t.Fatalf("key % x decodes to %v, %d bytes left, %v", k, v, len(rest), err)
			}
		}
	})
}
