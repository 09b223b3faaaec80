package storage

import (
	"bytes"
	"math"
	"slices"

	"repro/internal/bytemap"
	"repro/internal/value"
)

// keyDir is a relation's uncharged point-lookup directory over one
// column set, built on the first IterateKey over it, so a relation no
// statement probes never pays for one. It maps each key to the one live
// entry holding it, in an open-addressed table of 8-byte slots — the
// high 32 bits of the key's hash, then the entry id plus one (zero is
// empty) — compared through the entry's own tuple, so the directory
// holds no key bytes. Keys are hashed and compared as
// KeyEncoder.EqualKey encodes them, so an Int and a Float that Equal
// calls equal share one. An entry joins when it goes live (insert or
// revival) and leaves when it dies; compaction and Restore rebuild the
// table from the live rows.
//
// Keys are declared, not enforced: the directory switches itself off
// (slots nil, off set) once two live tuples share a key, or a key value
// is a NaN, which Equal calls equal to every number while its EqualKey
// bytes are its own. IterateKey then walks every live row. A tuple with
// a NULL in the key stays out of the directory: no `col = literal`
// holds on it.
type keyDir struct {
	pos   []int // key columns in the stored tuple
	ident []int // 0..len(pos)-1: the key's own columns in a probe tuple
	slots []uint64
	n     int
	off   bool
	// enc encodes the key being added or probed for; enc2 the stored
	// entry it is compared with.
	enc, enc2 value.KeyEncoder
}

// keyDirMinSlots is the smallest table; a table holds at most three
// quarters of its slots.
const keyDirMinSlots = 16

func keyDirSlots(n int) int {
	s := keyDirMinSlots
	for s*3 < n*4 {
		s *= 2
	}
	return s
}

func newKeyDir(pos []int) *keyDir {
	d := &keyDir{pos: append([]int(nil), pos...), ident: make([]int, len(pos))}
	for i := range d.ident {
		d.ident[i] = i
	}
	return d
}

// rebuild empties the directory, switches it back on and adds every
// live entry, in entry order.
func (d *keyDir) rebuild(entries []entry, live int) {
	if want := keyDirSlots(live); len(d.slots) == want {
		clear(d.slots)
	} else {
		d.slots = make([]uint64, want)
	}
	d.n, d.off = 0, false
	for i := range entries {
		if entries[i].count > 0 {
			if d.add(entries, int32(i)); d.off {
				return
			}
		}
	}
}

func (d *keyDir) disable() {
	d.slots, d.n, d.off = nil, 0, true
}

// skip reports whether t's key keeps it out of the directory (a NULL),
// switching the directory off on a NaN.
func (d *keyDir) skip(t value.Tuple) bool {
	if hasNaN(t, d.pos) {
		d.disable()
		return true
	}
	return hasNull(t, d.pos)
}

func hasNull(t value.Tuple, pos []int) bool {
	for _, j := range pos {
		if t[j].Kind == value.Null {
			return true
		}
	}
	return false
}

func hasNaN(t value.Tuple, pos []int) bool {
	for _, j := range pos {
		if v := t[j]; v.Kind == value.Float && math.IsNaN(v.F()) {
			return true
		}
	}
	return false
}

func keyHash(k []byte) uint32 { return uint32(bytemap.Hash(k) >> 32) }

// find returns the slot holding the live entry whose key encodes as k,
// or -1.
func (d *keyDir) find(entries []entry, k []byte, h uint32) int {
	mask := uint32(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s == 0 {
			return -1
		}
		if uint32(s>>32) == h && bytes.Equal(d.enc2.EqualKey(entries[int32(s)-1].tuple, d.pos), k) {
			return int(i)
		}
	}
}

// add enters entry eid, which has just gone live.
func (d *keyDir) add(entries []entry, eid int32) {
	t := entries[eid].tuple
	if d.off || d.skip(t) {
		return
	}
	k := d.enc.EqualKey(t, d.pos)
	h := keyHash(k)
	if d.find(entries, k, h) >= 0 {
		d.disable()
		return
	}
	if (d.n+1)*4 > len(d.slots)*3 {
		d.grow()
	}
	d.put(uint64(h)<<32 | uint64(eid+1))
	d.n++
}

func (d *keyDir) put(s uint64) {
	mask := uint32(len(d.slots) - 1)
	i := uint32(s>>32) & mask
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = s
}

func (d *keyDir) grow() {
	old := d.slots
	d.slots = make([]uint64, 2*len(old))
	for _, s := range old {
		if s != 0 {
			d.put(s)
		}
	}
}

// remove takes out entry eid, which is about to die; its tuple is still
// intact.
func (d *keyDir) remove(entries []entry, eid int32) {
	t := entries[eid].tuple
	if d.off || d.skip(t) {
		return
	}
	mask := uint32(len(d.slots) - 1)
	i := keyHash(d.enc.EqualKey(t, d.pos)) & mask
	for uint32(d.slots[i]) != uint32(eid+1) {
		if d.slots[i] == 0 {
			panic("storage: key directory lost a live entry")
		}
		i = (i + 1) & mask
	}
	// Backward shift: move up every later record of the cluster whose
	// home is not cyclically in (i, j], so no probe crosses the hole.
	for j := (i + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		home := uint32(d.slots[j]>>32) & mask
		if i <= j && (home <= i || home > j) || i > j && home <= i && home > j {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = 0
	d.n--
}

// get returns the id of the live entry whose key equals key (values in
// the directory's column order), or -1.
func (d *keyDir) get(entries []entry, key value.Tuple) int32 {
	if hasNull(key, d.ident) {
		return -1
	}
	k := d.enc.EqualKey(key, d.ident)
	if i := d.find(entries, k, keyHash(k)); i >= 0 {
		return int32(d.slots[i]) - 1
	}
	return -1
}

// IterateKey is Iterate narrowed to the live rows whose columns pos may
// equal key under value.Equal: it yields, in first-insertion order and
// without I/O accounting, a superset of those rows, which the caller
// filters. Through the relation's key directory over pos, built on the
// first call, that is at most one row; once the directory has switched
// itself off (pos is not a key of the stored rows, or a key value is a
// NaN), it is every live row. A key holding a NaN also gets every row,
// since Equal calls a NaN equal to every number. Rows alias relation
// storage under Iterate's contract.
func (r *Relation) IterateKey(pos []int, key value.Tuple, yield func(Row) bool) {
	d := r.keyDirFor(pos)
	if d.off || hasNaN(key, d.ident) {
		r.Iterate(yield)
		return
	}
	if eid := d.get(r.entries, key); eid >= 0 {
		e := &r.entries[eid]
		yield(Row{Tuple: e.tuple, Count: e.count})
	}
}

// keyDirFor returns the key directory over pos, building it from the
// live rows on first use.
func (r *Relation) keyDirFor(pos []int) *keyDir {
	for _, d := range r.keyDirs {
		if slices.Equal(d.pos, pos) {
			return d
		}
	}
	d := newKeyDir(pos)
	d.rebuild(r.entries, r.liveTuples)
	r.keyDirs = append(r.keyDirs, d)
	return d
}
