package maintain

import (
	"fmt"
	"time"

	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// obsBatchWindow records the transaction count of each coalesced window
// — the batching knob §3.6's space-for-time trade is parameterized by.
var obsBatchWindow = obs.H("maintain.batch.window")

// obsApplyView records the time to apply one view's delta and fold its
// sidecar, in nanoseconds.
var obsApplyView = obs.H("maintain.apply.view.ns")

// BatchReport describes one maintained window of transactions, with
// page I/O split the way the paper accounts it: queries posed during
// delta computation, updates to the additional materialized views,
// updates to the top-level view(s), and updates to the base relations
// (the last two are excluded from the paper's §3.6 totals). QueryIO
// covers the single propagation pass over the coalesced delta — this is
// where batching wins: track-prefix queries are posed once for the
// whole window instead of once per transaction, and changes that
// annihilate within the window are never propagated at all.
//
// Lifetime: ApplyBatch returns a recycled report — the same object,
// reset in place, every window — so the report and everything it points
// at are valid only until the next ApplyBatch on the maintainer.
type BatchReport struct {
	// Size is the number of transactions in the window.
	Size int
	// Type is the transaction type the update track was chosen for: the
	// declared type of a one-transaction window, a synthesized merged
	// type otherwise.
	Type  *txn.Type
	Track *tracks.Track

	QueryIO storage.IOCounter
	ViewIO  storage.IOCounter
	RootIO  storage.IOCounter
	BaseIO  storage.IOCounter

	// Deltas holds the computed change at every affected node, except a
	// join that StreamsInto its aggregate: that one has no entry.
	Deltas map[int]*delta.Delta
	// Merged holds the coalesced per-base-relation deltas the window
	// nets out to (what was actually propagated and applied), sorted by
	// relation name.
	Merged delta.Coalesced
	// LSN is the log sequence number as of which the window is durable
	// when a Committer is attached (0 otherwise).
	LSN uint64
	// Rejected is set when the window would have left one of the
	// maintainer's Guards non-empty: it was propagated (QueryIO is
	// charged, Deltas hold what it would have applied), not written.
	Rejected bool
}

// PaperTotal is the quantity §3.6 reports: query I/O plus
// additional-view maintenance I/O.
func (r *BatchReport) PaperTotal() int64 { return r.QueryIO.Total() + r.ViewIO.Total() }

// ApplyBatch maintains the view set under a window of transactions as
// one unit — the engine's only maintenance body; Apply is a window of
// one:
//
//  1. the window's per-relation deltas are coalesced into a single net
//     delta per base relation (annihilating +1/−1 pairs up front), and
//     handed to the Committer, whose fsync then runs under the rest;
//  2. the merged delta is propagated once along the update track chosen
//     for the window's transaction type, sharing the per-window probe
//     cache across everything the window touches;
//  3. a window under Guards is decided here, before anything is
//     written: rejected, it returns with Rejected set; accepted, it is
//     handed to the Committer now instead of in step 1;
//  4. the base relations are updated, one storage batch per relation;
//  5. the per-view deltas are applied to the materialized views in
//     track order, on the window's goroutine, each view's sidecar
//     live/stale bookkeeping right after its delta.
//
// Queries see the pre-batch state, as in the paper's differential
// formalism (R_old, V_old): composition of the window's deltas is valid
// against the database as of the window's start. The final view
// contents are identical to applying the window transaction by
// transaction; only the I/O spent getting there differs.
//
// A window of one transaction is that transaction, not a summary of it:
// Coalesce keeps its modifications paired, and the track is the one its
// declared type was costed for, so the window reproduces §3.6's
// per-transaction page I/O exactly. Larger windows net to insertions
// and deletions under a synthesized type (txn.Window.MergedType).
//
// Inside a Group, steps 1–5 run unchanged, but an accepted window is
// held by the group — its base deltas at step 3, its node deltas after
// step 5 — instead of reaching the Committer and the window hook; the
// report's LSN is 0, and the group's end logs and publishes it.
func (m *Maintainer) ApplyBatch(txns []txn.Transaction) (rep *BatchReport, err error) {
	t0 := time.Now()
	wt := obs.StartWindow("maintain.batch", m.spanParent)
	m.windowSpan = wt.RootID()
	obs.Flight().Record(obs.EvWindowOpen, 0, wt.Seq(), uint64(len(txns)), wt.RootID())
	m.winTypes.Fold(txns)
	defer func() {
		wt.Finish()
		elapsed := time.Since(t0).Nanoseconds()
		obsApplyNs.Observe(elapsed)
		m.observeTxnTypes(len(txns), elapsed, rep)
		m.publishArenaStats()
	}()
	obsBatchWindow.Observe(int64(len(txns)))
	// Rewind the window arena: tuples from the previous window (held by
	// its report) are invalidated here, per the window ownership rule.
	m.arena.Reset()
	m.winBuf = m.winBuf[:0]
	for _, t := range txns {
		m.winBuf = append(m.winBuf, t.Updates)
	}
	merged := m.coalescer.Coalesce(m.winBuf)
	bt, plan := m.windowPlan(txns, merged)
	// Recycled report: the maintainer hands back the same BatchReport
	// every window, reset in place — callers may use it only until the
	// next ApplyBatch (the same lifetime its Deltas already had).
	rep = &m.batchRep
	*rep = BatchReport{
		Size:   len(txns),
		Type:   bt,
		Deltas: rep.Deltas,
		Merged: merged,
	}
	if rep.Deltas == nil {
		rep.Deltas = map[int]*delta.Delta{}
	} else {
		clear(rep.Deltas)
	}
	// Pipelined group commit: an unguarded window's net base deltas go
	// to the committer now — before propagation — so its
	// encode/write/fsync runs under the entire window. wait is the
	// commit fence, joined below — or by the deferred call on an early
	// error return (whose error is the one reported), because merged dies
	// with the window.
	var wait func() (uint64, error)
	defer func() {
		if wait != nil {
			wait()
		}
	}()
	if m.Committer != nil && len(merged) > 0 && len(m.Guards) == 0 && !m.grouping {
		wait = m.Committer.BeginWindow(merged, len(txns))
	}

	if plan == nil {
		rep.Track = &tracks.Track{}
	} else {
		rep.Track = plan.track
	}
	tr := rep.Track

	// Seed leaf deltas from the merged window. Coalesce emits only
	// non-empty net deltas, so a Get hit is always worth seeding.
	for _, e := range m.D.Eqs() {
		if e.IsLeaf() {
			if du := merged.Get(e.BaseRel); du != nil {
				rep.Deltas[e.ID] = du
			}
		}
	}

	// One propagation pass for the whole window, charging queries; the
	// window memo shares answered queries across every transaction the
	// window coalesced.
	prop := wt.Child("maintain.propagate")
	w := m.newWindowMemo()
	io0 := m.Store.IO.Snapshot()
	for _, e := range tr.Order {
		op := tr.Choice[e.ID]
		d, err := m.opDelta(e, op, rep.Deltas, tr, w)
		if err != nil {
			prop.Finish()
			return nil, fmt.Errorf("maintain: %s at %s: %w", bt.Name, e, err)
		}
		if d != nil { // nil: streamed into its consumer, and observed there
			rep.Deltas[e.ID] = d
			obsDeltaChanges.Observe(int64(len(d.Changes)))
		}
	}
	rep.QueryIO = m.Store.IO.Snapshot().Sub(io0)
	prop.Finish()

	if rep.Rejected = len(m.Guards) > 0 && m.violates(rep.Deltas); rep.Rejected || len(merged) == 0 {
		// Nothing to log: report the covering durability point. A
		// rejected window writes nothing, so the live counts propagation
		// left for the sidecars go too, and no hook fires.
		for _, v := range m.views {
			v.pending = nil
		}
		if m.grouping {
			if !rep.Rejected {
				m.grp.holdDeltas(rep.Deltas, rep.Size)
			}
			return rep, nil
		}
		if m.Committer != nil {
			lsn, err := m.Committer.Commit(len(txns))
			if err := fenced(&rep.LSN, wt.Seq(), lsn, err); err != nil {
				return nil, err
			}
		}
		if !rep.Rejected {
			m.fireWindowHook(rep.LSN, rep.Size, rep.Deltas)
		}
		return rep, nil
	}
	switch {
	case m.grouping:
		m.grp.holdWindow(merged, wt.Seq()) // the group's end logs it
	case m.Committer != nil && len(m.Guards) > 0:
		wait = m.Committer.BeginWindow(merged, len(txns)) // accepted: the log hears of it only now
	}

	// Apply the base relation updates, one batch per relation. Queries
	// are all done (propagation finished), so no reader observes the new
	// base state early. Coalesce sorts by relation name, so the order is
	// deterministic.
	ab := wt.Child("maintain.apply_base")
	before := m.Store.IO.Snapshot()
	for _, rd := range merged {
		r, ok := m.Store.Get(rd.Rel)
		if !ok {
			ab.Finish()
			return nil, fmt.Errorf("maintain: unknown relation %q", rd.Rel)
		}
		m.mutBuf = rd.Delta.AppendMutations(m.mutBuf[:0])
		r.ApplyBatch(m.mutBuf)
	}
	rep.BaseIO = m.Store.IO.Snapshot().Sub(before)
	ab.Finish()

	// Apply deltas to the materialized views, each view's sidecar with
	// it: the sidecar reads the (now fully computed) delta map and writes
	// that view's live/stale/pending state.
	av := wt.Child("maintain.apply_views")
	verr := m.applyViews(rep, tr)
	av.Finish()
	if wait != nil {
		// Commit fence: ack implies durable.
		lsn, err := wait()
		wait = nil
		if err := fenced(&rep.LSN, wt.Seq(), lsn, err); err != nil {
			return nil, err
		}
	}
	if verr != nil {
		return nil, verr
	}
	if m.grouping {
		m.grp.holdDeltas(rep.Deltas, rep.Size)
		return rep, nil
	}
	m.fireWindowHook(rep.LSN, rep.Size, rep.Deltas)
	return rep, nil
}

// fenced records a window's commit fence in the flight recorder and
// folds the committer's answer into the report's LSN.
func fenced(repLSN *uint64, seq, lsn uint64, err error) error {
	if err != nil {
		obs.Flight().Record(obs.EvWindowFence, 0, seq, lsn, 1)
		return fmt.Errorf("maintain: commit: %w", err)
	}
	*repLSN = lsn
	obs.Flight().Record(obs.EvWindowFence, 0, seq, lsn, 0)
	return nil
}

// applyViews applies the computed deltas to every materialized view on
// the track, in track order, charging each view's page I/O to RootIO or
// ViewIO by snapshot difference, and folds the window into its sidecar.
func (m *Maintainer) applyViews(rep *BatchReport, tr *tracks.Track) error {
	for _, e := range tr.Order {
		v, ok := m.views[e.ID]
		if !ok {
			continue
		}
		t0 := time.Now()
		if d := rep.Deltas[e.ID]; !d.Empty() {
			before := m.Store.IO.Snapshot()
			m.mutBuf = d.AppendMutations(m.mutBuf[:0])
			v.Rel.ApplyBatch(m.mutBuf)
			used := m.Store.IO.Snapshot().Sub(before)
			if m.D.IsRoot(e) {
				rep.RootIO = addIO(rep.RootIO, used)
			} else {
				rep.ViewIO = addIO(rep.ViewIO, used)
			}
		}
		if err := m.updateSidecar(v, rep.Deltas, tr); err != nil {
			return err
		}
		obsApplyView.Observe(time.Since(t0).Nanoseconds())
	}
	return nil
}
