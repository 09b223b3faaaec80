package value

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Arena bump-allocates tuples and byte scratch for one maintenance
// window. Reset rewinds it without freeing, so a steady-state window
// reuses the blocks grown by earlier windows and the allocator is only
// entered while the working set is still expanding.
//
// Ownership rule ("no tuple escapes its window"): anything handed out by
// an Arena is valid only until the next Reset. Data that must outlive
// the window — stored relation state, sidecar entries, anything keyed
// into a long-lived map — must be cloned out first (storage does this on
// first insert). The methods are nil-receiver safe and fall back to
// plain make, so code paths that run without a window arena (per-txn
// Apply, tests, oracles) need no branches.
//
// Arenas are not safe for concurrent use; the per-worker apply path
// gives each worker its own.
type Arena struct {
	blocks [][]Value
	bi     int // current block index
	off    int // next free slot in blocks[bi]

	bblocks [][]byte
	bbi     int
	boff    int

	// Blocks past these marks were allocated since the last Reset:
	// serving from them counts as grown, before them as reused.
	markV int
	markB int

	reused uint64 // bytes served from pre-existing blocks
	grown  uint64 // bytes served from blocks allocated this window
}

const (
	arenaBlockVals  = 4096      // Values per tuple block
	arenaBlockBytes = 64 * 1024 // bytes per scratch block
)

// Size is the in-memory footprint of one Value, exported for slab
// byte accounting in storage.
const Size = unsafe.Sizeof(Value{})

var valueSize = uint64(Size)

// NewTuple returns a zeroed n-column tuple from the arena (or from the
// heap when a is nil).
func (a *Arena) NewTuple(n int) Tuple {
	if a == nil {
		return make(Tuple, n)
	}
	s := a.vals(n)
	clear(s)
	return Tuple(s)
}

// CloneTuple copies t into the arena and returns the copy.
func (a *Arena) CloneTuple(t Tuple) Tuple {
	if a == nil {
		return t.Clone()
	}
	s := a.vals(len(t))
	copy(s, t)
	return Tuple(s)
}

// ConcatTuples returns l++r built in the arena — the join output shape.
func (a *Arena) ConcatTuples(l, r Tuple) Tuple {
	if a == nil {
		out := make(Tuple, 0, len(l)+len(r))
		return append(append(out, l...), r...)
	}
	s := a.vals(len(l) + len(r))
	copy(s, l)
	copy(s[len(l):], r)
	return Tuple(s)
}

func (a *Arena) vals(n int) []Value {
	for {
		if a.bi < len(a.blocks) {
			blk := a.blocks[a.bi]
			if a.off+n <= len(blk) {
				s := blk[a.off : a.off+n : a.off+n]
				a.off += n
				if a.bi < a.markV {
					a.reused += uint64(n) * valueSize
				} else {
					a.grown += uint64(n) * valueSize
				}
				return s
			}
			a.bi++
			a.off = 0
			continue
		}
		size := arenaBlockVals
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]Value, size))
	}
}

// Bytes returns a zero-length byte slice with capacity at least n whose
// appends (up to n) stay inside the arena. The slice's capacity is
// clipped so overflowing appends reallocate on the heap instead of
// clobbering a neighbor.
func (a *Arena) Bytes(n int) []byte {
	if a == nil {
		return make([]byte, 0, n)
	}
	for {
		if a.bbi < len(a.bblocks) {
			blk := a.bblocks[a.bbi]
			if a.boff+n <= len(blk) {
				s := blk[a.boff : a.boff : a.boff+n]
				a.boff += n
				if a.bbi < a.markB {
					a.reused += uint64(n)
				} else {
					a.grown += uint64(n)
				}
				return s
			}
			a.bbi++
			a.boff = 0
			continue
		}
		size := arenaBlockBytes
		if n > size {
			size = n
		}
		a.bblocks = append(a.bblocks, make([]byte, size))
	}
}

// AppendBytes copies b into the arena and returns the stable copy.
func (a *Arena) AppendBytes(b []byte) []byte {
	if a == nil {
		return append([]byte(nil), b...)
	}
	s := a.Bytes(len(b))
	return append(s, b...)
}

// Reset rewinds the arena to empty, keeping every block for reuse.
// Everything previously handed out is invalidated.
//
// Under EnableEpochChecks the blocks are retired instead of rewound:
// their address ranges are recorded in the global retired set and fresh
// blocks are allocated for the next window, so a tuple that escaped its
// window keeps pointing into memory CheckEpoch can recognize as dead.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if epochChecks.Load() {
		retireBlocks(a.blocks)
		a.blocks = nil
		a.bblocks = nil
	}
	a.bi, a.off = 0, 0
	a.bbi, a.boff = 0, 0
	a.markV = len(a.blocks)
	a.markB = len(a.bblocks)
}

// Epoch checking (debug builds only): the arena ownership rule — "no
// tuple escapes its window" (anything an Arena hands out dies at the
// next Reset) — is normally enforced by review and the differential
// recycling tests. With checks enabled, every Reset retires its tuple
// blocks into a process-wide set of dead address ranges, and long-lived
// sinks (relation storage) call CheckEpoch on each tuple they are
// handed: a tuple whose backing array lies in a retired
// range escaped an earlier window, and the check panics with both
// epochs. The gate is one atomic load, but retiring blocks defeats
// block reuse, so this stays off outside tests.
var (
	epochChecks atomic.Bool
	retiredMu   sync.Mutex
	retired     []retiredRange
	epochNow    atomic.Uint64 // bumped per retire batch ~ one per window
)

type retiredRange struct {
	lo, hi uintptr
	epoch  uint64
}

// EnableEpochChecks turns the debug epoch check on or off. Enabling
// starts with an empty retired set; disabling clears it so retained
// ranges cannot leak across tests.
func EnableEpochChecks(on bool) {
	retiredMu.Lock()
	retired = nil
	epochNow.Store(0)
	retiredMu.Unlock()
	epochChecks.Store(on)
}

// EpochChecksEnabled reports whether the debug check is armed; callers
// use it to gate CheckEpoch off the hot path.
func EpochChecksEnabled() bool { return epochChecks.Load() }

func retireBlocks(blocks [][]Value) {
	if len(blocks) == 0 {
		return
	}
	retiredMu.Lock()
	epoch := epochNow.Add(1)
	for _, blk := range blocks {
		if len(blk) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(&blk[0]))
		retired = append(retired, retiredRange{
			lo:    lo,
			hi:    lo + uintptr(len(blk))*uintptr(valueSize),
			epoch: epoch,
		})
	}
	retiredMu.Unlock()
}

// CheckEpoch panics if t's backing array lies inside an arena block
// retired by an earlier window's Reset — i.e. the tuple escaped its
// window. No-op (beyond one atomic load) when checks are disabled or
// for heap-allocated tuples.
func CheckEpoch(t Tuple) {
	if !epochChecks.Load() || len(t) == 0 {
		return
	}
	p := uintptr(unsafe.Pointer(&t[0]))
	retiredMu.Lock()
	for i := range retired {
		if p >= retired[i].lo && p < retired[i].hi {
			epoch := retired[i].epoch
			now := epochNow.Load()
			retiredMu.Unlock()
			panic(fmt.Sprintf(
				"value: tuple %v escaped its window: backing array retired in epoch %d (current epoch %d)",
				t, epoch, now))
		}
	}
	retiredMu.Unlock()
}

// Stats returns cumulative bytes served from retained blocks (reused)
// and from blocks newly allocated in their window (grown). A healthy
// steady state shows reused growing and grown flat.
func (a *Arena) Stats() (reused, grown uint64) {
	if a == nil {
		return 0, 0
	}
	return a.reused, a.grown
}
