package delta

import (
	"sort"

	"repro/internal/obs"
)

// Registry mirrors of coalescing work: how many signed-row units
// entered a window, how many survived netting, and how many annihilated
// — the measured counterpart of the batching win the §3.6 arithmetic
// only estimates. Units are signed rows (|Count| per tuple side, so a
// modification is two: −old and +new), the currency Normalize nets in;
// counting raw Change entries would let out exceed in whenever a
// modification survives as a split delete+insert pair.
var (
	obsCoalesceWindows     = obs.C("delta.coalesce.windows")
	obsCoalesceChangesIn   = obs.C("delta.coalesce.changes_in")
	obsCoalesceChangesOut  = obs.C("delta.coalesce.changes_out")
	obsCoalesceAnnihilated = obs.C("delta.coalesce.annihilated")
)

// signedUnits is the netting currency of a delta: per change, |Count|
// for each non-nil tuple side. Netting can only cancel units, never
// mint them, so the metric in − out is always ≥ 0.
func signedUnits(d *Delta) int64 {
	var n int64
	for _, c := range d.Changes {
		k := c.Count
		if k < 0 {
			k = -k
		}
		if c.Old != nil {
			n += k
		}
		if c.New != nil {
			n += k
		}
	}
	return n
}

// RelDelta is one base relation's net delta within a coalesced window.
type RelDelta struct {
	Rel   string
	Delta *Delta
}

// Coalesced is a window's net effect: one entry per base relation with
// a non-empty net delta, sorted by relation name. The ordering is part
// of the contract — batch logs, metrics snapshots and downstream plan
// keys all iterate it, so it must be identical across runs.
type Coalesced []RelDelta

// Get returns the net delta for a relation (nil when the relation's
// window effect annihilated or the relation was untouched).
func (c Coalesced) Get(rel string) *Delta {
	for _, rd := range c {
		if rd.Rel == rel {
			return rd.Delta
		}
	}
	return nil
}

// Coalescer performs window coalescing with reusable scratch: the
// per-relation concatenation deltas, the normalizer's netting table,
// the per-relation normalized output deltas and the output slice all
// persist across windows (truncated, not freed), so a steady-state
// window coalesces with no heap allocation at all. The returned
// Coalesced — and every delta it points at — is therefore valid only
// until the next Coalesce call on the same Coalescer, matching the
// maintenance contract that a window's deltas die at the next window.
// Not safe for concurrent use; each maintainer owns one.
type Coalescer struct {
	nz     Normalizer
	concat map[string]*Delta
	norm   map[string]*Delta // recycled normalized outputs, one per relation
	out    Coalesced         // recycled output slice
}

// Coalesce merges a window of per-transaction update maps into one net
// delta per base relation, valid against the pre-batch state, sorted by
// relation name.
//
// Composition is signed bag addition: applying d1 then d2 to a relation
// leaves it in the same state as applying their concatenation, so the
// window's net effect is the tuple-wise sum of signed multiplicities.
// Normalize performs that sum, which is where annihilation happens — a
// tuple inserted by one transaction and deleted by a later one (or a
// modification undone downstream) vanishes before any propagation work
// is spent on it. Relations whose net delta is empty are omitted
// entirely, so a fully self-cancelling window costs nothing.
//
// A window of several transactions contains only insertions and
// deletions: modification pairing does not survive tuple-wise netting
// (the old and new halves may cancel against other transactions
// independently). A window of ONE transaction keeps a modification
// paired when both halves survive: nothing can cancel across
// transactions, so the window is that transaction, and storage charges
// an in-place modify less than a delete plus an insert (§3.6's 16/32 at
// {N4} depends on it). An applied-then-undone pair still annihilates.
func (co *Coalescer) Coalesce(windows []map[string]*Delta) Coalesced {
	obsCoalesceWindows.Inc()
	if co.concat == nil {
		co.concat = map[string]*Delta{}
	}
	for _, acc := range co.concat {
		acc.Changes = acc.Changes[:0]
	}
	var changesIn int64
	for _, updates := range windows {
		for rel, d := range updates {
			if d.Empty() {
				continue
			}
			changesIn += signedUnits(d)
			acc, ok := co.concat[rel]
			if !ok {
				acc = New(d.Schema)
				co.concat[rel] = acc
			}
			acc.Schema = d.Schema
			acc.Changes = append(acc.Changes, d.Changes...)
		}
	}
	if co.norm == nil {
		co.norm = map[string]*Delta{}
	}
	out := co.out[:0]
	pair := len(windows) == 1
	var changesOut int64
	for rel, acc := range co.concat {
		if len(acc.Changes) == 0 {
			continue
		}
		dst, ok := co.norm[rel]
		if !ok {
			dst = New(acc.Schema)
			co.norm[rel] = dst
		}
		acc.Coerce()
		if net := co.nz.normalize(acc, dst, pair); !net.Empty() {
			out = append(out, RelDelta{Rel: rel, Delta: net})
			changesOut += signedUnits(net)
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	}
	co.out = out
	obsCoalesceChangesIn.Add(changesIn)
	obsCoalesceChangesOut.Add(changesOut)
	obsCoalesceAnnihilated.Add(changesIn - changesOut)
	return out
}
