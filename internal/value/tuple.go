package value

import (
	"strings"
)

// Tuple is an ordered list of values, positionally aligned with a schema.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have the same length and pairwise
// equal values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !Equal(t[i], o[i]) {
			return false
		}
	}
	return true
}

// EqualAt reports whether l and r agree under Equal on every column
// pair (lpos[i], rpos[i]): whether they join on those columns.
func EqualAt(l Tuple, lpos []int, r Tuple, rpos []int) bool {
	for i, lp := range lpos {
		if !Equal(l[lp], r[rpos[i]]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := Compare(t[i], o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// Project returns the tuple restricted to the given column positions.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Key returns a stable byte-exact string encoding of the tuple, suitable
// as a map key for hashing, grouping and duplicate detection. Numeric
// values that compare equal encode identically (ints are widened to the
// float encoding only when they carry a fractional-free float peer is not
// knowable here, so ints and floats encode distinctly by design: mixed
// int/float grouping keys are normalized by the executor before hashing).
func (t Tuple) Key() string {
	return string(AppendKey(make([]byte, 0, 16*len(t)), t))
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
