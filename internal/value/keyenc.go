package value

import (
	"encoding/binary"
	"math"
)

// AppendKey appends the stable key encoding of t to dst and returns the
// extended slice. The encoding is byte-identical to Tuple.Key, so the two
// forms can be mixed freely as map keys.
func AppendKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = appendValue(dst, v)
	}
	return dst
}

// AppendProjectedKey appends the key encoding of t restricted to the
// column positions pos, without materializing the projected tuple. It is
// the allocation-free form of t.Project(pos).Key().
func AppendProjectedKey(dst []byte, t Tuple, pos []int) []byte {
	for _, j := range pos {
		dst = appendValue(dst, t[j])
	}
	return dst
}

// Same reports whether a and b have the same key encoding: the same kind
// and, within it, the same bits. Unlike Equal (and unlike ==, which reads
// every field and compares floats numerically), an Int never matches a
// Float, +0.0 and −0.0 differ, and a NaN matches itself.
func Same(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Int:
		return a.I == b.I
	case Float:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case String:
		return a.S == b.S
	case Bool:
		return a.B == b.B
	}
	return true
}

func appendValue(dst []byte, v Value) []byte {
	var buf [8]byte
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case Int:
		binary.BigEndian.PutUint64(buf[:], uint64(v.I))
		dst = append(dst, buf[:]...)
	case Float:
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.F))
		dst = append(dst, buf[:]...)
	case String:
		binary.BigEndian.PutUint64(buf[:], uint64(len(v.S)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.S...)
	case Bool:
		if v.B {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return append(dst, 0xFF)
}

// KeyEncoder builds tuple keys into one reused buffer, so that hashing a
// stream of tuples (hash joins, group-by, sidecar maintenance, delta
// normalization) allocates only when a key is actually retained — a map
// lookup via string(enc.Key(t)) is allocation-free.
//
// The returned slice aliases the encoder's buffer and is invalidated by
// the next call; convert to string (or copy) before keeping it.
type KeyEncoder struct {
	buf []byte
}

// Key returns the key encoding of t in the reused buffer.
func (e *KeyEncoder) Key(t Tuple) []byte {
	e.buf = AppendKey(e.buf[:0], t)
	return e.buf
}

// ProjectedKey returns the key encoding of t restricted to pos in the
// reused buffer.
func (e *KeyEncoder) ProjectedKey(t Tuple, pos []int) []byte {
	e.buf = AppendProjectedKey(e.buf[:0], t, pos)
	return e.buf
}

// EqualKey returns a hash key for t restricted to pos under Equal, in
// the reused buffer: an Int or Float is encoded as the float64 it
// compares as, −0 as +0, so values Equal calls equal always share a key.
// Unequal values can share one too (Ints beyond 2^53), so a hash join on
// it checks Equal on every match.
func (e *KeyEncoder) EqualKey(t Tuple, pos []int) []byte {
	e.buf = e.buf[:0]
	for _, j := range pos {
		v := t[j]
		if v.Kind == Int || v.Kind == Float {
			v = NewFloat(v.AsFloat() + 0) // + 0 turns −0 into +0
		}
		e.buf = appendValue(e.buf, v)
	}
	return e.buf
}
