package delta_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
)

// TestCoalesceSingleTransactionKeepsModifications pins the window-of-one
// contract: a one-transaction window keeps a modification paired when
// both halves survive netting, an undone half still cancels, and a
// window of two transactions nets to insertions and deletions only.
func TestCoalesceSingleTransactionKeepsModifications(t *testing.T) {
	s := algebra.Scan(smallDB().Catalog.MustGet("Emp")).Schema()
	a, b, c := empTuple(0, 0, 100), empTuple(0, 0, 200), empTuple(1, 1, 100)
	one := func(build func(*delta.Delta)) map[string]*delta.Delta {
		d := delta.New(s)
		build(d)
		return map[string]*delta.Delta{"Emp": d}
	}
	// One coalescer for every window, as a maintainer holds one: each
	// result is checked before the next call recycles its scratch.
	var co delta.Coalescer
	changes := func(w delta.Coalesced) []delta.Change {
		if d := w.Get("Emp"); d != nil {
			return d.Changes
		}
		return nil
	}

	// a→b alone, beside an unrelated insert: the pair survives, and
	// multiplicities ride along.
	got := changes(co.Coalesce([]map[string]*delta.Delta{one(func(d *delta.Delta) {
		d.Insert(c, 1)
		d.Modify(a, b, 2)
	})}))
	if len(got) != 2 || !got[0].IsModify() || !got[0].Old.Equal(a) || !got[0].New.Equal(b) ||
		got[0].Count != 2 || !got[1].IsInsert() || !got[1].New.Equal(c) {
		t.Errorf("one transaction {+c, a→b×2} coalesced to %v, want [a→b×2 +c]", got)
	}

	// a→b then −b in the same transaction: the new half cancels, the old
	// half is a plain deletion.
	got = changes(co.Coalesce([]map[string]*delta.Delta{one(func(d *delta.Delta) {
		d.Modify(a, b, 1)
		d.Delete(b, 1)
	})}))
	if len(got) != 1 || !got[0].IsDelete() || !got[0].Old.Equal(a) || got[0].Count != 1 {
		t.Errorf("one transaction {a→b, −b} coalesced to %v, want [−a]", got)
	}

	// a→b then b→a: applied then undone, nothing left.
	if w := co.Coalesce([]map[string]*delta.Delta{one(func(d *delta.Delta) {
		d.Modify(a, b, 1)
		d.Modify(b, a, 1)
	})}); len(w) != 0 {
		t.Errorf("one transaction {a→b, b→a} coalesced to %v, want nothing", changes(w))
	}

	// Two transactions: unchanged — no modification survives coalescing.
	got = changes(co.Coalesce([]map[string]*delta.Delta{
		one(func(d *delta.Delta) { d.Modify(a, b, 1) }),
		one(func(d *delta.Delta) { d.Insert(c, 1) }),
	}))
	if len(got) != 3 {
		t.Fatalf("two transactions coalesced to %v, want −a +b +c", got)
	}
	for _, ch := range got {
		if ch.IsModify() {
			t.Errorf("two-transaction window kept a modification: %v", got)
		}
	}
}
