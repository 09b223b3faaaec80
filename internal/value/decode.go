package value

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports a byte string that is not a valid value encoding.
// Decoders wrap it so callers can errors.Is-match corruption regardless
// of which layer detected it.
var ErrCorrupt = errors.New("value: corrupt encoding")

// DecodeValue decodes one value from the front of b — the exact inverse
// of the key encoding appendValue produces (kind byte, fixed-width or
// length-prefixed payload, 0xFF terminator) — and returns the remaining
// bytes. The same bytes the engine hashes as map keys are therefore the
// WAL's on-disk tuple format; no second serialization exists.
//
// DecodeValue is corruption-robust: any truncated, over-long or
// malformed input returns ErrCorrupt (never a panic, never an invented
// value), which is what lets the log scanner treat a failed decode as
// the torn tail of a crashed write.
func DecodeValue(b []byte) (Value, []byte, error) {
	if len(b) < 2 {
		return Value{}, nil, fmt.Errorf("%w: truncated value", ErrCorrupt)
	}
	kind := Kind(b[0])
	rest := b[1:]
	var v Value
	switch kind {
	case Null:
		v = Value{Kind: Null}
	case Int, Float: // a Float's I is its bits
		if len(rest) < 8 {
			return Value{}, nil, fmt.Errorf("%w: truncated %v", ErrCorrupt, kind)
		}
		v = Value{Kind: kind, I: int64(binary.BigEndian.Uint64(rest))}
		rest = rest[8:]
	case String:
		if len(rest) < 8 {
			return Value{}, nil, fmt.Errorf("%w: truncated string length", ErrCorrupt)
		}
		n := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		// Bound by the remaining bytes before allocating: a corrupt
		// length must fail cleanly, not attempt a huge allocation.
		if n > uint64(len(rest)) {
			return Value{}, nil, fmt.Errorf("%w: string length %d exceeds input", ErrCorrupt, n)
		}
		v = NewString(string(rest[:n]))
		rest = rest[n:]
	case Bool:
		if len(rest) < 1 {
			return Value{}, nil, fmt.Errorf("%w: truncated bool", ErrCorrupt)
		}
		switch rest[0] {
		case 0:
			v = NewBool(false)
		case 1:
			v = NewBool(true)
		default:
			return Value{}, nil, fmt.Errorf("%w: bool byte %d", ErrCorrupt, rest[0])
		}
		rest = rest[1:]
	default:
		return Value{}, nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, b[0])
	}
	if len(rest) < 1 || rest[0] != 0xFF {
		return Value{}, nil, fmt.Errorf("%w: missing terminator", ErrCorrupt)
	}
	return v, rest[1:], nil
}
