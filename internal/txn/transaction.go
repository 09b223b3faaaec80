package txn

import (
	"slices"
	"strconv"

	"repro/internal/delta"
)

// Transaction is one concrete transaction instance: the type it was
// drawn from and the actual per-base-relation deltas it performs. Type
// may be nil — it only informs cost-based track selection, never
// correctness — in which case the batch pipeline infers an update
// description from the delta shapes.
type Transaction struct {
	Type    *Type
	Updates map[string]*delta.Delta
}

// Window folds a window's transactions by declared type, so that what
// depends only on the window's shape — its merged type and the per-type
// accounting — costs one step per distinct type, not one per
// transaction. The zero value is ready; Fold reuses its scratch from
// window to window. Not safe for concurrent use.
type Window struct {
	uses []TypeUse
	cols []string
}

// TypeUse is one distinct type of a folded window: how many of the
// window's transactions declare it (Type nil: untyped).
type TypeUse struct {
	Type *Type
	N    int
	// made[i] is Type.Updates[i]'s state: pending until some
	// transaction of the type changes its relation, then made; shadowed
	// when an earlier update names the same relation (UpdateOf finds the
	// first). left counts the pending ones.
	made []updateState
	left int
}

type updateState uint8

const (
	pending updateState = iota
	made
	shadowed
)

// Fold records the window's transactions. A transaction costs finding
// its type among the window's distinct ones, plus one map lookup per
// declared update no earlier transaction of the type has made.
func (w *Window) Fold(txns []Transaction) {
	w.uses = w.uses[:0]
	for i := range txns {
		t := &txns[i]
		u := w.use(t.Type)
		u.N++
		if u.left == 0 {
			continue
		}
		for j, up := range t.Type.Updates {
			if u.made[j] != pending {
				continue
			}
			if d, ok := t.Updates[up.Rel]; ok && !d.Empty() {
				u.made[j] = made
				u.left--
			}
		}
	}
}

// use returns t's entry, adding it on first sight. A window holds a few
// distinct types, so a scan finds them.
func (w *Window) use(t *Type) *TypeUse {
	for i := range w.uses {
		if w.uses[i].Type == t {
			return &w.uses[i]
		}
	}
	n := len(w.uses)
	w.uses = slices.Grow(w.uses, 1)[:n+1]
	u := &w.uses[n]
	u.Type, u.N, u.made, u.left = t, 0, u.made[:0], 0
	if t != nil {
		for j, up := range t.Updates {
			st := pending
			for _, prev := range t.Updates[:j] {
				if prev.Rel == up.Rel {
					st = shadowed
					break
				}
			}
			u.made = append(u.made, st)
			if st == pending {
				u.left++
			}
		}
	}
	return u
}

// Uses returns the folded window's distinct types in first-seen order,
// valid until the next Fold.
func (w *Window) Uses() []TypeUse { return w.uses }

// MergedType synthesizes a transaction type describing the folded
// window, given its coalesced per-relation deltas: per relation the
// update size is the net change count, kinds collapse to Modify when
// the window mixes them, and modified column sets union. Only relations
// with non-empty net deltas appear, so annihilated updates do not
// influence track choice. The name is AppendName's.
func (w *Window) MergedType(merged delta.Coalesced) *Type {
	out := &Type{Name: string(w.AppendName(nil, merged)), Weight: 1}
	for _, rd := range merged {
		kind, cols, typed := w.declared(rd.Rel)
		if typed {
			cols = append([]string{}, cols...)
		} else {
			kind = inferKind(rd.Delta)
		}
		out.Updates = append(out.Updates, RelUpdate{Rel: rd.Rel, Kind: kind, Size: float64(rd.Delta.Size()), Cols: cols})
	}
	return out
}

// AppendName appends the merged type's name for the folded window over
// its coalesced deltas: "batch[" then, per relation (merged is sorted by
// name), rel:kind:cols:size — columns joined by '+', the size as %g
// prints it — separated by spaces, then "]". The name is deterministic
// in the window's update signature and doubles as a plan-cache key.
func (w *Window) AppendName(dst []byte, merged delta.Coalesced) []byte {
	dst = append(dst, "batch["...)
	for i, rd := range merged {
		if i > 0 {
			dst = append(dst, ' ')
		}
		kind, cols, typed := w.declared(rd.Rel)
		if !typed {
			kind = inferKind(rd.Delta)
		}
		dst = append(dst, rd.Rel...)
		dst = append(dst, ':')
		dst = append(dst, kind.String()...)
		dst = append(dst, ':')
		for j, c := range cols {
			if j > 0 {
				dst = append(dst, '+')
			}
			dst = append(dst, c...)
		}
		dst = append(dst, ':')
		dst = strconv.AppendFloat(dst, float64(rd.Delta.Size()), 'g', -1, 64)
	}
	return append(dst, ']')
}

// declared folds the declared updates for rel across the window's
// typed transactions that changed it: a uniform kind survives, mixed
// kinds become Modify, and modified columns union, sorted. typed is
// false when no such transaction declares rel. The columns are the
// window's scratch, valid until the next call.
func (w *Window) declared(rel string) (kind Kind, cols []string, typed bool) {
	mixed := false
	w.cols = w.cols[:0]
	for i := range w.uses {
		u := &w.uses[i]
		if u.Type == nil {
			continue
		}
		for j, up := range u.Type.Updates {
			if up.Rel != rel || u.made[j] != made {
				continue
			}
			if !typed {
				kind, typed = up.Kind, true
			} else if up.Kind != kind {
				mixed = true
			}
			w.cols = append(w.cols, up.Cols...)
		}
	}
	if !typed {
		return Modify, nil, false
	}
	if mixed {
		kind = Modify
	}
	slices.Sort(w.cols)
	w.cols = slices.Compact(w.cols)
	return kind, w.cols, true
}

// inferKind classifies a coalesced delta by its change shapes: pure
// insertions, pure deletions, or (for mixtures) Modify.
func inferKind(d *delta.Delta) Kind {
	ins, del := false, false
	for _, c := range d.Changes {
		switch {
		case c.IsInsert():
			ins = true
		case c.IsDelete():
			del = true
		default:
			return Modify
		}
	}
	switch {
	case ins && !del:
		return Insert
	case del && !ins:
		return Delete
	default:
		return Modify
	}
}
