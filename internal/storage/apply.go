package storage

import (
	"bytes"

	"repro/internal/value"
)

// Mutation is one element of a batch update to a stored relation.
// Exactly one of the three shapes is used:
//
//   - insert: New set, Old nil
//   - delete: Old set, New nil
//   - modify: both set (Old is replaced by New)
//
// Count is the bag multiplicity affected (defaults to 1).
type Mutation struct {
	Old   value.Tuple
	New   value.Tuple
	Count int64
}

// IsInsert reports whether m is an insertion.
func (m Mutation) IsInsert() bool { return m.Old == nil && m.New != nil }

// IsDelete reports whether m is a deletion.
func (m Mutation) IsDelete() bool { return m.Old != nil && m.New == nil }

// IsModify reports whether m is an in-place modification.
func (m Mutation) IsModify() bool { return m.Old != nil && m.New != nil }

// ApplyBatch applies a batch of mutations with the paper's I/O charges:
//
//   - per index, one index-page read per distinct hash bucket the batch
//     touches (the paper's single-bucket batches charge exactly one),
//     plus one index-page write per bucket whose entries change
//     (inserts, deletes, or modifications that move the indexed key);
//   - one relation-page read per modified or deleted tuple;
//   - one relation-page write per modified or inserted tuple.
//
// An empty batch charges nothing. Mutation tuples may live in a
// per-window arena: the relation clones anything it stores, so the
// caller may reset the arena once the batch returns.
func (r *Relation) ApplyBatch(batch []Mutation) {
	if len(batch) == 0 {
		return
	}
	// Advance the batch fence: slots freed slotGrace fences ago become
	// harvestable for this batch's inserts (see allocTuple).
	r.batchSeq++
	if len(batch) == 1 {
		// Fast path: a single mutation touches at most two buckets per
		// index, so the charges are computed directly, skipping the
		// per-bucket bookkeeping. Charge order and amounts match the
		// general path exactly.
		m := batch[0]
		for _, ix := range r.indexes {
			switch {
			case m.IsInsert():
				bk := ix.keyOf(m.New)
				r.chargeIndexRead(ix.def.Name, bk)
				r.chargeIndexWrite(ix.def.Name, bk)
			case m.IsDelete():
				bk := ix.keyOf(m.Old)
				r.chargeIndexRead(ix.def.Name, bk)
				r.chargeIndexWrite(ix.def.Name, bk)
			case m.IsModify():
				ob := ix.keyOf(m.Old)
				if nb := ix.keyOf2(m.New); bytes.Equal(ob, nb) {
					r.chargeIndexRead(ix.def.Name, ob)
				} else {
					r.chargeIndexRead(ix.def.Name, ob)
					r.chargeIndexWrite(ix.def.Name, ob)
					r.chargeIndexRead(ix.def.Name, nb)
					r.chargeIndexWrite(ix.def.Name, nb)
				}
			}
		}
		r.applyMutations(batch)
		r.publishProbeStats()
		r.maybeCompact()
		return
	}
	// Index page charges, per distinct touched bucket in first-touch
	// order. The bookkeeping table is an open-addressed scratch map
	// reset per call: bucket keys are copied into its arena exactly
	// once, and the first-touch order is kept as arena refs.
	for _, ix := range r.indexes {
		ix.touched.Reset()
		ix.order = ix.order[:0]
		note := func(bucket []byte, dirty bool) {
			p, ref, existed := ix.touched.GetOrPut(bucket, dirty)
			if !existed {
				ix.order = append(ix.order, ref)
			} else if dirty {
				*p = true
			}
		}
		for _, m := range batch {
			switch {
			case m.IsInsert():
				note(ix.keyOf(m.New), true)
			case m.IsDelete():
				note(ix.keyOf(m.Old), true)
			case m.IsModify():
				ob, nb := ix.keyOf(m.Old), ix.keyOf2(m.New)
				if bytes.Equal(ob, nb) {
					note(ob, false)
				} else {
					note(ob, true)
					note(nb, true)
				}
			}
		}
		for _, ref := range ix.order {
			bucket := ix.touched.KeyAt(ref)
			r.chargeIndexRead(ix.def.Name, bucket)
			if dirty, _ := ix.touched.Get(bucket); dirty {
				r.chargeIndexWrite(ix.def.Name, bucket)
			}
		}
	}
	r.applyMutations(batch)
	r.publishProbeStats()
	r.maybeCompact()
}

// applyMutations performs the tuple-level part of ApplyBatch: relation
// page charges plus the in-memory mutations themselves. Each tuple's
// canonical key is encoded exactly once per mutation side into a reused
// scratch buffer and threaded through charging, mutation and buffer
// bookkeeping.
func (r *Relation) applyMutations(batch []Mutation) {
	for _, m := range batch {
		count := m.Count
		if count == 0 {
			count = 1
		}
		switch {
		case m.IsInsert():
			nk := r.encNew.Key(m.New)
			r.chargePageWrite(nk)
			r.insertRawKeyed(m.New, nk, count)
		case m.IsDelete():
			ok := r.encOld.Key(m.Old)
			r.chargePageRead(ok)
			if r.deleteRawKeyed(m.Old, ok, count) == 0 {
				r.dropPage(ok)
			}
		case m.IsModify():
			ok, nk := r.encOld.Key(m.Old), r.encNew.Key(m.New)
			r.chargePageRead(ok)
			if r.deleteRawKeyed(m.Old, ok, count) == 0 && !bytes.Equal(ok, nk) {
				r.dropPage(ok)
			}
			r.chargePageWrite(nk)
			r.insertRawKeyed(m.New, nk, count)
		}
	}
}
