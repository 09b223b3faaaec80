package value

import (
	"encoding/binary"
	"hash/maphash"
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
// and, within it, the same bits. Unlike Equal, an Int never matches a
// Float, +0.0 and −0.0 differ, and a NaN matches itself.
func Same(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Int, Float:
		return a.I == b.I
	case String:
		return a.S == b.S
	case Bool:
		return a.B == b.B
	}
	return true
}

// HashSame hashes t so that tuples Same column by column hash alike:
// each value contributes its kind and the bits Same compares.
func HashSame(t Tuple, seed maphash.Seed) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		var x uint64
		switch v.Kind {
		case Int, Float:
			x = uint64(v.I)
		case String:
			x = maphash.String(seed, v.S)
		case Bool:
			if v.B {
				x = 1
			}
		}
		h = mix(h ^ uint64(v.Kind)<<59 ^ x)
	}
	return h
}

// mix is splitmix64's finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// SameTuple reports whether a and b are Same column by column.
func SameTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Same(a[i], b[i]) {
			return false
		}
	}
	return true
}

func appendValue(dst []byte, v Value) []byte {
	var buf [8]byte
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case Int, Float: // a Float's I is its bits
		binary.BigEndian.PutUint64(buf[:], uint64(v.I))
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
// compares as, −0 as +0, so values Equal calls equal share a key — with
// one exception: Equal calls a NaN equal to every number, but a NaN's
// key is its own bits, so a hash join on this key misses the NaN
// matches a nested loop under Equal finds (ROADMAP item 15). Unequal
// values can share a key too (Ints beyond 2^53), so a hash join on it
// checks Equal on every match.
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
