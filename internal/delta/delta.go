// Package delta implements differential (incremental) computation over
// the logical algebra: given changes to an operator's inputs, it derives
// the changes to the operator's output, in the style of the counting
// algorithm and the paper's Section 2.2 ([GMS93]/[BLT86]-style).
//
// Deltas carry three change shapes — insertions, deletions and in-place
// modifications (paired old/new tuples). Modifications are first-class
// because the paper's cost arithmetic (read old + write new) and the
// aggregate add/subtract trick depend on keeping the pairing.
//
// Propagation through joins, distinct, difference and (non-covered)
// aggregation needs access to the *pre-update* state of other inputs;
// callers supply that state through probe callbacks, which is where the
// paper's "queries posed on equivalence nodes" happen. The delta package
// itself performs no I/O.
package delta

import (
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/value"
)

// Change is one element of a delta. Exactly one of the three shapes:
//
//   - insert: New set, Old nil
//   - delete: Old set, New nil
//   - modify: both set
//
// Count is the bag multiplicity (>= 1).
type Change struct {
	Old   value.Tuple
	New   value.Tuple
	Count int64
}

// IsInsert reports whether c is an insertion.
func (c Change) IsInsert() bool { return c.Old == nil && c.New != nil }

// IsDelete reports whether c is a deletion.
func (c Change) IsDelete() bool { return c.Old != nil && c.New == nil }

// IsModify reports whether c is a modification.
func (c Change) IsModify() bool { return c.Old != nil && c.New != nil }

// String renders the change as +t, -t or old→new.
func (c Change) String() string {
	n := c.Count
	if n == 0 {
		n = 1
	}
	switch {
	case c.IsInsert():
		return fmt.Sprintf("+%v×%d", c.New, n)
	case c.IsDelete():
		return fmt.Sprintf("-%v×%d", c.Old, n)
	default:
		return fmt.Sprintf("%v→%v×%d", c.Old, c.New, n)
	}
}

// Delta is a set of changes against a relation with the given schema.
type Delta struct {
	Schema  *catalog.Schema
	Changes []Change
}

// New returns an empty delta for the schema.
func New(s *catalog.Schema) *Delta { return &Delta{Schema: s} }

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool { return d == nil || len(d.Changes) == 0 }

// Insert appends an insertion.
func (d *Delta) Insert(t value.Tuple, count int64) {
	d.Changes = append(d.Changes, Change{New: t, Count: count})
}

// Delete appends a deletion.
func (d *Delta) Delete(t value.Tuple, count int64) {
	d.Changes = append(d.Changes, Change{Old: t, Count: count})
}

// Modify appends a modification, dropping no-ops: old and new Equal,
// and no column a NaN on one side only. Equal calls a NaN equal to every
// number, but writing a NaN over a number, or a number over a NaN,
// changes the row.
func (d *Delta) Modify(old, new value.Tuple, count int64) {
	if old.Equal(new) && !nanMoved(old, new) {
		return
	}
	d.Changes = append(d.Changes, Change{Old: old, New: new, Count: count})
}

// nanMoved reports whether some column of two equal-length tuples is a
// NaN in exactly one of them.
func nanMoved(old, new value.Tuple) bool {
	for i := range old {
		if isNaN(old[i]) != isNaN(new[i]) {
			return true
		}
	}
	return false
}

func isNaN(v value.Value) bool { return v.Kind == value.Float && math.IsNaN(v.F()) }

// Coerce stores each number in d's changes as its column's declared
// kind (value.Coerce): an Int in a FLOAT column becomes a Float, an
// integral Float in an INT column an Int. Within one column, then, two
// numbers that compare equal encode alike (a FLOAT column's ±0.0
// aside), which the aggregate pushed below an INT join counts on
// (DESIGN.md §7). A tuple that needs it is replaced by a coerced copy,
// so the tuples d points at are never written; a well-typed delta costs
// a kind comparison per value.
func (d *Delta) Coerce() {
	if d.Schema == nil {
		return
	}
	for i := range d.Changes {
		c := &d.Changes[i]
		c.Old = coerceTuple(c.Old, d.Schema)
		c.New = coerceTuple(c.New, d.Schema)
	}
}

// coerceTuple returns t with its numbers in s's declared kinds: t
// itself when they already are, else a copy.
func coerceTuple(t value.Tuple, s *catalog.Schema) value.Tuple {
	for i, v := range t {
		if i >= len(s.Cols) || v.Kind == s.Cols[i].Type || value.Coerce(v, s.Cols[i].Type).Kind == v.Kind {
			continue
		}
		out := t.Clone()
		for j := i; j < len(out) && j < len(s.Cols); j++ {
			out[j] = value.Coerce(out[j], s.Cols[j].Type)
		}
		return out
	}
	return t
}

// Size returns the number of changes (the paper's |delta|, used for
// update-cost accounting).
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.Changes)
}

// AppendMutations appends the delta's changes to dst as storage
// mutations — the reusable-buffer form of ToMutations for callers that
// keep a per-window scratch slice.
func (d *Delta) AppendMutations(dst []storage.Mutation) []storage.Mutation {
	for _, c := range d.Changes {
		dst = append(dst, storage.Mutation{Old: c.Old, New: c.New, Count: c.Count})
	}
	return dst
}

// ToMutations converts the delta into storage mutations.
func (d *Delta) ToMutations() []storage.Mutation {
	return d.AppendMutations(make([]storage.Mutation, 0, len(d.Changes)))
}

// signedRow is a tuple with a signed multiplicity; mods expand to a
// -old/+new pair.
type signedRow struct {
	tuple value.Tuple
	count int64 // signed
}

// appendSigned appends d's signed-row expansion to dst — the
// reusable-buffer form of signedRows.
func (d *Delta) appendSigned(dst []signedRow) []signedRow {
	for _, c := range d.Changes {
		n := c.Count
		if n == 0 {
			n = 1
		}
		if c.Old != nil {
			dst = append(dst, signedRow{tuple: c.Old, count: -n})
		}
		if c.New != nil {
			dst = append(dst, signedRow{tuple: c.New, count: +n})
		}
	}
	return dst
}

func (d *Delta) signedRows() []signedRow {
	return d.appendSigned(nil)
}

// Normalizer nets deltas tuple-wise with reusable scratch (an
// open-addressed table of the tuples themselves, hashed by
// value.HashSame rather than key-encoded, and a signed-row buffer), so
// steady-state windows normalize without heap allocation beyond the
// output delta.
// Not safe for concurrent use; owners are per-maintainer.
type Normalizer struct {
	// tab indexes rows by tuple (value.HashSame, value.SameTuple): open
	// addressing, linear probing, sized per call to twice the signed
	// rows; a slot holds a row index plus one (0: empty).
	tab  []netSlot
	rows []signedRow
	sbuf []signedRow
	slot []int32 // per sbuf entry, its index in rows (pairing only)
}

// netSlot is one slot of Normalizer.tab.
type netSlot struct {
	hash uint64
	row  int32
}

// hashSeed seeds the normalizer's tuple hash.
var hashSeed = maphash.MakeSeed()

// Normalize merges d's changes tuple-wise into net insertions and
// deletions, in first-seen tuple order — identical semantics to
// Delta.Normalize.
func (nz *Normalizer) Normalize(d *Delta) *Delta {
	return nz.NormalizeInto(d, New(d.Schema))
}

// NormalizeInto is Normalize with a caller-recycled output delta: out's
// changes are truncated and rebuilt in place, so a holder that feeds
// the same output delta back every window normalizes with no steady-
// state allocation. Returns out.
func (nz *Normalizer) NormalizeInto(d, out *Delta) *Delta {
	return nz.normalize(d, out, false)
}

// NormalizePairedInto is NormalizeInto that keeps a modification paired
// when both of its halves survive netting in full, as Coalesce does for
// a window of one transaction: the net change of a sequence of deltas
// then reads as the modifications it still makes, not as a delete and
// an insert each.
func (nz *Normalizer) NormalizePairedInto(d, out *Delta) *Delta {
	return nz.normalize(d, out, true)
}

// normalize nets d into out. With pair set, a modification of d whose
// two halves both survive netting in full is emitted as a modification
// (ahead of the remaining net insertions and deletions) instead of
// being torn into a delete and an insert; a half that cancelled against
// another change leaves the other half as a plain insert or delete.
func (nz *Normalizer) normalize(d, out *Delta, pair bool) *Delta {
	nz.rows = nz.rows[:0]
	nz.slot = nz.slot[:0]
	nz.sbuf = d.appendSigned(nz.sbuf[:0])
	size := 8
	for size < 2*len(nz.sbuf) {
		size *= 2
	}
	if cap(nz.tab) < size {
		nz.tab = make([]netSlot, size)
	}
	tab := nz.tab[:size]
	clear(tab)
	mask := uint64(size - 1)
	for _, sr := range nz.sbuf {
		h := value.HashSame(sr.tuple, hashSeed)
		i := h & mask
		for {
			s := &tab[i]
			if s.row == 0 {
				nz.rows = append(nz.rows, sr)
				s.hash, s.row = h, int32(len(nz.rows))
				break
			}
			if r := &nz.rows[s.row-1]; s.hash == h && value.SameTuple(r.tuple, sr.tuple) {
				r.count += sr.count
				break
			}
			i = (i + 1) & mask
		}
		if pair {
			nz.slot = append(nz.slot, tab[i].row-1)
		}
	}
	out.Schema = d.Schema
	out.Changes = out.Changes[:0]
	if pair {
		// sbuf holds one signed row per insert or delete and two (−old,
		// +new) per modification, in change order; j walks it in step.
		j := 0
		for _, c := range d.Changes {
			if !c.IsModify() {
				j++
				continue
			}
			o, n := &nz.rows[nz.slot[j]], &nz.rows[nz.slot[j+1]]
			j += 2
			k := max(c.Count, 1)
			if o.count <= -k && n.count >= k {
				out.Changes = append(out.Changes, Change{Old: c.Old, New: c.New, Count: k})
				o.count += k
				n.count -= k
			}
		}
	}
	for i := range nz.rows {
		e := &nz.rows[i]
		switch {
		case e.count > 0:
			out.Insert(e.tuple, e.count)
		case e.count < 0:
			out.Delete(e.tuple, -e.count)
		}
	}
	return out
}

// Normalize merges changes tuple-wise into net insertions and deletions,
// re-pairing nothing: the result contains no modifications. For
// comparing deltas in tests; the engine nets with the Normalizer its
// maintainer holds, and this one-shot form allocates its scratch.
func (d *Delta) Normalize() *Delta {
	var nz Normalizer
	return nz.Normalize(d)
}

// GroupCounts returns the signed change in bag cardinality per group key
// (value.Tuple.Key() form) that the delta causes, grouping by the given
// columns. Used to maintain the live-count sidecars of materialized
// aggregate views.
func (d *Delta) GroupCounts(groupCols []string) (map[string]int64, error) {
	pos := make([]int, len(groupCols))
	for i, c := range groupCols {
		j, err := d.Schema.Resolve(c)
		if err != nil {
			return nil, err
		}
		pos[i] = j
	}
	out := map[string]int64{}
	var enc value.KeyEncoder
	for _, sr := range d.signedRows() {
		out[string(enc.ProjectedKey(sr.tuple, pos))] += sr.count
	}
	return out, nil
}

// TupleCounts returns the signed change in multiplicity per full tuple
// (for distinct-view sidecars).
func (d *Delta) TupleCounts() map[string]int64 {
	out := map[string]int64{}
	var enc value.KeyEncoder
	for _, sr := range d.signedRows() {
		out[string(enc.Key(sr.tuple))] += sr.count
	}
	return out
}
