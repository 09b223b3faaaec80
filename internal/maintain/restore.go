package maintain

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// ViewState is a materialized view's checkpointed contents plus the
// maintenance sidecar (live counts and stale marks) needed to resume
// incremental maintenance without recomputation.
type ViewState struct {
	// Fingerprint identifies the view's defining expression; a restored
	// state is only trusted if it matches the current DAG's fingerprint
	// for the node.
	Fingerprint string
	Rows        []storage.Row
	Live        map[string]int64
	Stale       []string
}

// RestoreOptions lets NewRestored seed materialized views from
// checkpointed state instead of recomputing them.
type RestoreOptions struct {
	// Source resolves a view's checkpointed state by storage name. A nil
	// Source (the default) recomputes every view, as New always has.
	Source func(name string) (*ViewState, bool)
	// OnRecompute is called for each view that had to fall back to full
	// recomputation despite a Source being set — either the checkpoint
	// predates the view (view-set change) or its fingerprint no longer
	// matches the expression.
	OnRecompute func(name string)
}

// NewRestored materializes the view set like New, but consults
// opts.Source first: a view whose checkpointed state matches the DAG's
// current fingerprint is loaded directly, making recovery's view cost
// proportional to the log tail rather than the database size.
func NewRestored(d *dag.DAG, st *storage.Store, model cost.Model, vs tracks.ViewSet, opts RestoreOptions) (*Maintainer, error) {
	m := &Maintainer{
		D:     d,
		Store: st,
		Cost:  tracks.NewCosting(d, model),
		VS:    vs,
		views: map[int]*View{},
		trees: map[int]algebra.Node{},

		plans:  map[string]*trackPlan{},
		steps:  map[*dag.OpNode]*planStep{},
		planVS: viewSetKey(vs),
	}
	// Representative trees are built once per equivalence node, so the
	// trees of different views share subtrees by pointer and one memo over
	// them evaluates each subexpression once: a view set holding an
	// aggregate and the selection above it joins once, not three times
	// (view, sidecar, root). Base relations do not change in this loop.
	free := exec.NewFree(st).WithMemo(exec.Memo{})
	reps := map[int]algebra.Node{}
	var rep func(e *dag.EqNode) algebra.Node
	rep = func(e *dag.EqNode) algebra.Node {
		if e.IsLeaf() {
			return e.Expr
		}
		if t, ok := reps[e.ID]; ok {
			return t
		}
		op := e.Ops[0]
		children := make([]algebra.Node, len(op.Children))
		for i, c := range op.Children {
			children[i] = rep(c)
		}
		reps[e.ID] = op.Template.WithChildren(children)
		return reps[e.ID]
	}
	for _, e := range d.NonLeafEqs() {
		if !vs[e.ID] {
			continue
		}
		schema := catalog.NewSchema(append([]catalog.Column{}, e.Schema().Cols...)...)
		def := &catalog.TableDef{Name: ViewName(e), Schema: schema}
		if ix := qualifyIndexCols(schema, tracks.ViewIndexCols(d, e)); len(ix) > 0 {
			def.Indexes = []catalog.IndexDef{{Name: def.Name + "_ix", Columns: ix}}
		}
		rel, err := st.Create(def)
		if err != nil {
			return nil, err
		}
		v := &View{Eq: e, Rel: rel, live: map[string]int64{}, stale: map[string]bool{}}
		for _, op := range e.Ops {
			switch op.Kind() {
			case algebra.KindAggregate:
				if v.aggOp == nil {
					v.aggOp = op
					v.groupCols = schema.ColumnNames()[:len(op.Template.(*algebra.Aggregate).GroupBy)]
				}
			case algebra.KindDistinct:
				if v.distinctOp == nil {
					v.distinctOp = op
				}
			}
		}
		restored := false
		if opts.Source != nil {
			if state, ok := opts.Source(def.Name); ok && state.Fingerprint == d.Fingerprint(e) {
				rel.Load(state.Rows)
				rel.RefreshStats()
				for k, n := range state.Live {
					v.live[k] = n
				}
				for _, k := range state.Stale {
					v.stale[k] = true
				}
				restored = true
			}
		}
		if !restored {
			if opts.Source != nil && opts.OnRecompute != nil {
				opts.OnRecompute(def.Name)
			}
			res, err := free.Eval(rep(e))
			if err != nil {
				return nil, fmt.Errorf("maintain: materializing %s: %w", e, err)
			}
			rel.Load(res.Rows)
			rel.RefreshStats()
			if err := m.initSidecar(v, free, rep); err != nil {
				return nil, err
			}
		}
		m.views[e.ID] = v
	}
	return m, nil
}

// renamed resolves a view's checkpointed state under rename(name): how a
// shard finds its own copy of a view in a sharded checkpoint.
func (o RestoreOptions) renamed(rename func(string) string) RestoreOptions {
	if src := o.Source; src != nil {
		o.Source = func(name string) (*ViewState, bool) { return src(rename(name)) }
	}
	return o
}

// Snapshot is a pipeline's state as a checkpoint holds it.
type Snapshot struct {
	ViewSetKey string
	// Base holds the rows of each base relation asked for, in order.
	Base [][]storage.Row
	// Views holds every materialized view's state by checkpoint name.
	Views map[string]*ViewState
}

// Snapshot returns the maintainer's checkpoint state: the view-set key,
// the rows of the named base relations and ViewStates.
func (m *Maintainer) Snapshot(rels []string) (*Snapshot, error) {
	snap := &Snapshot{ViewSetKey: m.VS.Key(), Views: m.ViewStates()}
	for _, name := range rels {
		r, ok := m.Store.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", name)
		}
		snap.Base = append(snap.Base, r.Snapshot())
	}
	return snap, nil
}

// ReplayWindow applies one logged window — the net base deltas its
// Committer was handed — as a window of one transaction whose trace
// hangs under parent. Guards are lifted: the window was acknowledged, so
// it is applied even if an assertion added since would reject it.
func (m *Maintainer) ReplayWindow(w delta.Coalesced, parent uint64) error {
	guards := m.Guards
	m.Guards, m.spanParent = nil, parent
	defer func() { m.Guards, m.spanParent = guards, 0 }()
	_, err := m.ApplyBatch(replayed(w))
	return err
}

// replayed is a logged window as the one transaction that replays it.
func replayed(w delta.Coalesced) []txn.Transaction {
	updates := make(map[string]*delta.Delta, len(w))
	for _, rd := range w {
		updates[rd.Rel] = rd.Delta
	}
	return []txn.Transaction{{Updates: updates}}
}

// ViewStates snapshots every materialized view's contents and sidecar,
// keyed by storage name — what the checkpoint writer persists.
func (m *Maintainer) ViewStates() map[string]*ViewState {
	out := make(map[string]*ViewState, len(m.views))
	for _, v := range m.views {
		live := make(map[string]int64, len(v.live))
		for k, n := range v.live {
			live[k] = n
		}
		stale := make([]string, 0, len(v.stale))
		for k := range v.stale {
			stale = append(stale, k)
		}
		sort.Strings(stale)
		out[ViewName(v.Eq)] = &ViewState{
			Fingerprint: m.D.Fingerprint(v.Eq),
			Rows:        v.Rel.Snapshot(),
			Live:        live,
			Stale:       stale,
		}
	}
	return out
}
