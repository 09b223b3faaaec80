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

	"repro/internal/bytemap"
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

// Modify appends a modification, dropping no-ops.
func (d *Delta) Modify(old, new value.Tuple, count int64) {
	if old.Equal(new) {
		return
	}
	d.Changes = append(d.Changes, Change{Old: old, New: new, Count: count})
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
// open-addressed key table and a signed-row buffer), so steady-state
// windows normalize without heap allocation beyond the output delta.
// Not safe for concurrent use; owners are per-maintainer.
type Normalizer struct {
	net  bytemap.Map[int32]
	rows []signedRow
	sbuf []signedRow
	slot []int32 // per sbuf entry, its index in rows (pairing only)
	enc  value.KeyEncoder
}

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

// normalize nets d into out. With pair set, a modification of d whose
// two halves both survive netting in full is emitted as a modification
// (ahead of the remaining net insertions and deletions) instead of
// being torn into a delete and an insert; a half that cancelled against
// another change leaves the other half as a plain insert or delete.
func (nz *Normalizer) normalize(d, out *Delta, pair bool) *Delta {
	nz.net.Reset()
	nz.rows = nz.rows[:0]
	nz.slot = nz.slot[:0]
	nz.sbuf = d.appendSigned(nz.sbuf[:0])
	for _, sr := range nz.sbuf {
		kb := nz.enc.Key(sr.tuple)
		p, _, existed := nz.net.GetOrPut(kb, int32(len(nz.rows)))
		if pair {
			nz.slot = append(nz.slot, *p)
		}
		if existed {
			nz.rows[*p].count += sr.count
		} else {
			nz.rows = append(nz.rows, sr)
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
