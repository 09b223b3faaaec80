// Package bytemap implements an open-addressed robin-hood hash table
// keyed by raw byte slices. It exists so the hot maintenance path can
// probe indexes directly on value.KeyEncoder output without
// materializing a Go string per lookup: Go's built-in map[string]V
// forces a string allocation on every insert (and on every lookup that
// is not a literal map[string(b)] expression), and its buckets are
// pointer-rich, so a steady-state window spends most of its time in
// mallocgc and GC scanning. A bytemap.Map stores keys in an append-only
// paged byte arena and records in a flat pointer-lean slot array, so
// inserts copy the key once, lookups allocate nothing, and the GC sees a
// handful of backing arrays instead of thousands of strings. The arena
// is paged (fixed 64 KiB chunks) rather than one contiguous slice: a
// growing map appends a fresh page instead of doubling-and-copying every
// key it ever stored, so long-lived directories (storage row and bucket
// directories grow for the life of the relation) never re-copy old keys
// and produce no growth garbage on the apply path.
//
// Robin-hood displacement (an insert steals the slot of any record
// closer to its home bucket) bounds the variance of probe lengths, and
// deletion uses backward shifting, so the table never accumulates
// tombstones. The zero Map is empty and ready to use.
//
// Maps are not safe for concurrent use. Value pointers returned by
// GetOrPut/Ptr are valid only until the next mutation.
package bytemap

import (
	"bytes"
	"hash/maphash"
)

// seed is the process-wide hash seed. Iteration order is already
// unspecified, so a per-process random seed costs nothing and guards
// against accidental dependence on bucket layout.
var seed = maphash.MakeSeed()

// Hash returns the hash of k under the package seed.
func Hash(k []byte) uint64 { return maphash.Bytes(seed, k) }

// Arena page geometry: Off packs (page index << pageShift) | byte
// offset within the page. Keys never span pages; a key of pageSize
// bytes or more gets a dedicated page of exactly its length (offset 0),
// so the in-page offset always fits pageShift bits.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Ref locates a key inside a Map's arena. Refs stay valid across
// inserts and rehashes (the arena is append-only) until Reset.
type Ref struct {
	Off uint32
	Len uint32
}

// slot is one record: 16 bytes when V is a 4-byte value. A record's
// probe distance (its probe-sequence position plus one, see dist) is
// worked out from its tag and where it sits, not stored. The
// robin-hood invariant is that scanning a probe sequence sees
// non-decreasing distances until the record or an empty slot is found.
type slot[V any] struct {
	// tag is the low 31 bits of the key's hash with the top bit set;
	// zero marks an empty slot. Tables stay below 2^31 slots, so the
	// home bucket is tag & mask.
	tag  uint32
	koff uint32
	klen uint32
	val  V
}

func tagOf(h uint64) uint32 { return uint32(h) | 1<<31 }

// Map is an open-addressed robin-hood hash table from byte-slice keys
// to values of type V. The zero value is an empty map.
type Map[V any] struct {
	slots []slot[V] // power-of-two length
	pages [][]byte  // append-only paged key arena
	cur   int       // index of the page currently being filled
	mask  uint64
	n     int

	// Cumulative probe accounting (lookups and inserts), for the
	// open-index observability counters.
	probes   uint64
	ops      uint64
	maxProbe int32
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return m.n }

// Cap returns the current slot-table size (0 before first insert).
func (m *Map[V]) Cap() int { return len(m.slots) }

// ProbeStats returns the cumulative probe count and operation count
// since the map was created (Reset does not clear them), plus the
// longest probe sequence ever walked.
func (m *Map[V]) ProbeStats() (probes, ops uint64, maxProbe int) {
	return m.probes, m.ops, int(m.maxProbe)
}

// KeyAt returns the key bytes a Ref points at. The slice aliases the
// arena: callers must not modify it, and it dies at Reset.
func (m *Map[V]) KeyAt(r Ref) []byte {
	off := r.Off & pageMask
	return m.pages[r.Off>>pageShift][off : off+r.Len]
}

func (m *Map[V]) note(d int32) {
	m.probes += uint64(d)
	m.ops++
	if d > m.maxProbe {
		m.maxProbe = d
	}
}

// dist returns the probe distance of the record in slot i.
func (m *Map[V]) dist(i uint64) int32 {
	return int32((i-uint64(m.slots[i].tag))&m.mask) + 1
}

func (m *Map[V]) keyEq(s *slot[V], t uint32, k []byte) bool {
	if s.tag != t || int(s.klen) != len(k) {
		return false
	}
	off := s.koff & pageMask
	return bytes.Equal(m.pages[s.koff>>pageShift][off:off+s.klen], k)
}

// Get returns the value stored under k.
func (m *Map[V]) Get(k []byte) (V, bool) {
	if p := m.lookup(k); p != nil {
		return p.val, true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to the value stored under k, or nil. The
// pointer is invalidated by the next mutation.
func (m *Map[V]) Ptr(k []byte) *V {
	if p := m.lookup(k); p != nil {
		return &p.val
	}
	return nil
}

func (m *Map[V]) lookup(k []byte) *slot[V] {
	if m.n == 0 {
		return nil
	}
	t := tagOf(Hash(k))
	i := uint64(t) & m.mask
	d := int32(1)
	for {
		s := &m.slots[i]
		if s.tag == 0 || m.dist(i) < d {
			m.note(d)
			return nil
		}
		if m.keyEq(s, t, k) {
			m.note(d)
			return s
		}
		d++
		i = (i + 1) & m.mask
	}
}

// Put stores v under k, replacing any existing value, and returns the
// key's arena Ref.
func (m *Map[V]) Put(k []byte, v V) Ref {
	p, ref, _ := m.GetOrPut(k, v)
	*p = v
	return ref
}

// GetOrPut returns a pointer to the value under k, inserting v first
// when the key is absent. existed reports whether the key was already
// present (in which case v was NOT stored). The pointer is valid until
// the next mutation.
func (m *Map[V]) GetOrPut(k []byte, v V) (p *V, ref Ref, existed bool) {
	if len(m.slots) == 0 || (m.n+1)*8 > len(m.slots)*7 {
		m.grow()
	}
	t := tagOf(Hash(k))
	i := uint64(t) & m.mask
	d := int32(1)
	for {
		s := &m.slots[i]
		if s.tag == 0 {
			ref = m.appendKey(k)
			*s = slot[V]{tag: t, koff: ref.Off, klen: ref.Len, val: v}
			m.n++
			m.note(d)
			return &s.val, ref, false
		}
		if m.keyEq(s, t, k) {
			m.note(d)
			return &s.val, Ref{Off: s.koff, Len: s.klen}, true
		}
		if m.dist(i) < d {
			// Robin hood: the resident is closer to home than we are.
			// Take its slot and push it (and transitively anyone it
			// displaces) further down the probe sequence; cd is the
			// distance of the record being carried.
			ref = m.appendKey(k)
			cand := slot[V]{tag: t, koff: ref.Off, klen: ref.Len, val: v}
			cd := d
			placed := -1
			for {
				s := &m.slots[i]
				if s.tag == 0 {
					*s = cand
					if placed < 0 {
						placed = int(i)
					}
					m.n++
					m.note(cd)
					return &m.slots[placed].val, ref, false
				}
				if sd := m.dist(i); sd < cd {
					*s, cand = cand, *s
					cd = sd
					if placed < 0 {
						placed = int(i)
					}
				}
				cd++
				i = (i + 1) & m.mask
			}
		}
		d++
		i = (i + 1) & m.mask
	}
}

// Delete removes k, reporting whether it was present. Removal shifts
// subsequent records backward, so the table holds no tombstones; the
// key's arena bytes are reclaimed only at Reset.
func (m *Map[V]) Delete(k []byte) bool {
	if m.n == 0 {
		return false
	}
	t := tagOf(Hash(k))
	i := uint64(t) & m.mask
	d := int32(1)
	for {
		s := &m.slots[i]
		if s.tag == 0 || m.dist(i) < d {
			m.note(d)
			return false
		}
		if m.keyEq(s, t, k) {
			m.note(d)
			break
		}
		d++
		i = (i + 1) & m.mask
	}
	// Backward-shift everything that probed past the hole.
	j := i
	for {
		nxt := (j + 1) & m.mask
		if m.slots[nxt].tag == 0 || m.dist(nxt) <= 1 {
			break
		}
		m.slots[j] = m.slots[nxt]
		j = nxt
	}
	m.slots[j] = slot[V]{}
	m.n--
	return true
}

// Range calls f for every entry until f returns false. Iteration order
// is unspecified. The key slice aliases the arena; f must not retain or
// modify it. f must not mutate the map.
func (m *Map[V]) Range(f func(k []byte, v *V) bool) {
	for i := range m.slots {
		s := &m.slots[i]
		if s.tag == 0 {
			continue
		}
		if !f(m.KeyAt(Ref{Off: s.koff, Len: s.klen}), &s.val) {
			return
		}
	}
}

// Reset empties the map, keeping the slot table and key arena capacity
// for reuse — the per-window scratch pattern. Refs and KeyAt slices
// from before the Reset are invalidated.
func (m *Map[V]) Reset() {
	clear(m.slots)
	for i := range m.pages {
		m.pages[i] = m.pages[i][:0]
	}
	m.cur = 0
	m.n = 0
}

func (m *Map[V]) appendKey(k []byte) Ref {
	need := len(k)
	if need >= pageSize {
		// Oversized key: a dedicated page of exactly its length.
		m.pages = append(m.pages, append(make([]byte, 0, need), k...))
		m.cur = len(m.pages) - 1
		return Ref{Off: uint32(m.cur) << pageShift, Len: uint32(need)}
	}
	for m.cur < len(m.pages) &&
		(len(m.pages[m.cur])+need > cap(m.pages[m.cur]) || len(m.pages[m.cur]) >= pageSize) {
		m.cur++
	}
	if m.cur == len(m.pages) {
		// Page sizes double from a small seed up to pageSize, so tiny
		// per-window scratch maps don't pin a full page while persistent
		// directories converge to full pages within a few appends.
		sz := 256
		if n := len(m.pages); n > 0 {
			if sz = 2 * cap(m.pages[n-1]); sz > pageSize {
				sz = pageSize
			}
		}
		for sz < need {
			sz *= 2
		}
		m.pages = append(m.pages, make([]byte, 0, sz))
	}
	p := m.pages[m.cur]
	off := uint32(len(p))
	m.pages[m.cur] = append(p, k...)
	return Ref{Off: uint32(m.cur)<<pageShift | off, Len: uint32(need)}
}

func (m *Map[V]) grow() {
	newCap := 16
	if len(m.slots) > 0 {
		newCap = len(m.slots) * 2
	}
	old := m.slots
	m.slots = make([]slot[V], newCap)
	m.mask = uint64(newCap - 1)
	for i := range old {
		if old[i].tag != 0 {
			m.reinsert(old[i])
		}
	}
}

// reinsert places an existing record into the grown table: keys are
// already in the arena and necessarily distinct, so no key compares or
// arena appends happen during a rehash.
func (m *Map[V]) reinsert(rec slot[V]) {
	i := uint64(rec.tag) & m.mask
	d := int32(1)
	for {
		s := &m.slots[i]
		if s.tag == 0 {
			*s = rec
			return
		}
		if sd := m.dist(i); sd < d {
			*s, rec = rec, *s
			d = sd
		}
		d++
		i = (i + 1) & m.mask
	}
}
