package maintain

import (
	"encoding/binary"

	"repro/internal/bytemap"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// Window-level multi-query optimization counters. memo_hits counts
// queries served from the shared subplan memo instead of storage — the
// runtime realization of the sharing the cost model's MQO step assumes
// when it prices each distinct (target, binding) query once per track.
var (
	obsMemoHits   = obs.C("maintain.mqo.memo_hits")
	obsMemoMisses = obs.C("maintain.mqo.memo_misses")
)

// windowMemo is the shared subplan memo for one maintenance window (one
// transaction in Apply, one coalesced batch in ApplyBatch). It has two
// layers:
//
//   - rows: answered point queries σ[cols = key](target), keyed by the
//     ordinal of the target's structural fingerprint (dag.Fingerprint)
//     plus the binding. Fingerprint keying makes the slot a property of
//     the expression, not of the equivalence-class ID, so every query
//     posed along the track — across marked nodes and across opDelta
//     calls — that asks for the same subexpression under the same
//     binding is evaluated exactly once per window.
//   - eval: the executor-level memo sharing full-evaluation results of
//     repeated subtrees inside query-tree evaluation (exec.Memo).
//
// Both layers hold pre-update state only; a memo never survives past the
// window's propagation pass (views and bases mutate after it).
type windowMemo struct {
	rows bytemap.Map[[]storage.Row]
	on   bool // false: the memo is inert (disableMQO)
	eval exec.Memo
	// buf is the window's probe-row slab: answerQuery directs
	// LookupAppend into it and memoizes sub-slices, so a window's probes
	// share one grow-once buffer instead of allocating a fresh []Row
	// each. Truncated (not freed) at window start — cross-window
	// recycling per DESIGN.md §14.
	buf []storage.Row
}

// newWindowMemo returns the memo for one window. The memo struct and
// its maps are owned by the maintainer and recycled across windows
// (cleared, not reallocated); single-threaded use per the propagation
// pass. With disableMQO set the memo is inert: every query goes back to
// storage, which is the per-query oracle the equivalence suite compares
// against.
func (m *Maintainer) newWindowMemo() *windowMemo {
	w := &m.winMemo
	w.buf = w.buf[:0]
	w.rows.Reset()
	if w.on = !m.disableMQO; !w.on {
		w.eval = nil
		return w
	}
	if w.eval == nil {
		w.eval = exec.Memo{}
	} else {
		clear(w.eval)
	}
	return w
}

// get looks up an answered query; an inert memo never hits.
func (w *windowMemo) get(key []byte) ([]storage.Row, bool) {
	if !w.on {
		obsMemoMisses.Inc()
		return nil, false
	}
	rows, ok := w.rows.Get(key)
	if ok {
		obsMemoHits.Inc()
	} else {
		obsMemoMisses.Inc()
	}
	return rows, ok
}

// put records an answered query (no-op when the memo is inert).
func (w *windowMemo) put(key []byte, rows []storage.Row) {
	if w.on {
		w.rows.Put(key, rows)
	}
}

// lookup probes rel through the window's shared row slab: matches are
// appended to buf and the answer is the capacity-clipped sub-slice, so
// a later probe growing buf can never scribble over an earlier answer.
func (w *windowMemo) lookup(rel *storage.Relation, cols []string, key value.Tuple) []storage.Row {
	start := len(w.buf)
	w.buf = rel.LookupAppend(cols, key, w.buf)
	return w.buf[start:len(w.buf):len(w.buf)]
}

// memoKey builds the memo key for σ[cols = key](target): the ordinal of
// the target's structural fingerprint, binding columns, bound values
// (canonical key encoding). The ordinal is a uvarint, so it is
// prefix-free.
func (m *Maintainer) memoKey(dst []byte, target *dag.EqNode, cols []string, key value.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.fingerprintOrdinal(target)))
	dst = append(dst, '|')
	for _, c := range cols {
		dst = append(dst, c...)
		dst = append(dst, ',')
	}
	dst = append(dst, '|')
	return value.AppendKey(dst, key)
}

// fingerprintOrdinal numbers e's structural fingerprint: classes with
// equal fingerprints get one ordinal, so a memo keyed by it shares
// exactly what a memo keyed by the fingerprint text would, for a few
// bytes of key instead of the whole expression. The numbering is the
// maintainer's, built on first sight of each class; the DAG is fully
// expanded before a maintainer exists, so a class's fingerprint never
// changes under it.
func (m *Maintainer) fingerprintOrdinal(e *dag.EqNode) uint32 {
	if e.ID < len(m.fpOrd) && m.fpOrd[e.ID] != 0 {
		return m.fpOrd[e.ID]
	}
	fp := m.D.Fingerprint(e)
	if m.fpOrdinals == nil {
		m.fpOrdinals = map[string]uint32{}
	}
	ord, ok := m.fpOrdinals[fp]
	if !ok {
		ord = uint32(len(m.fpOrdinals) + 1)
		m.fpOrdinals[fp] = ord
	}
	if e.ID >= len(m.fpOrd) {
		m.fpOrd = append(m.fpOrd, make([]uint32, e.ID+1-len(m.fpOrd))...)
	}
	m.fpOrd[e.ID] = ord
	return ord
}
