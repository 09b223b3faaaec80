package maintain

import (
	"fmt"
	"slices"
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
	"repro/internal/value"
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
	vt := &viewTrees{cost: m.Cost, stored: tracks.ViewSet{}, scans: map[int]algebra.Node{}, built: map[viewTreeKey]builtTree{}}
	var pending []*View
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
		m.views[e.ID] = v
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
				vt.store(v)
				continue
			}
			if opts.OnRecompute != nil {
				opts.OnRecompute(def.Name)
			}
		}
		pending = append(pending, v)
	}
	// Compute the rest cheapest first, each through its cheapest plan
	// given the views already stored: Figure 5's revenue reads its 1 000
	// factorized partials joined with T, not the three-way join again.
	// One memo serves every evaluation, and the trees share subtrees by
	// pointer while their plans do not change, so a subexpression that a
	// view, its sidecar and the view after it all read is evaluated once.
	free := exec.NewFree(st).WithMemo(exec.Memo{})
	for len(pending) > 0 {
		next, least := 0, 0.0
		for i, v := range pending {
			if c := m.Cost.EvalCost(v.Eq, vt.stored); i == 0 || c < least {
				next, least = i, c
			}
		}
		v := pending[next]
		pending = slices.Delete(pending, next, next+1)
		res, err := free.Eval(vt.rep(v.Eq))
		if err != nil {
			return nil, fmt.Errorf("maintain: materializing %s: %w", v.Eq, err)
		}
		v.Rel.Load(res.Rows)
		v.Rel.RefreshStats()
		if err := m.initSidecar(v, free, vt.rep); err != nil {
			return nil, err
		}
		vt.store(v)
	}
	return m, nil
}

// viewTrees builds the trees views are materialized from. A node is
// computed through its cheapest operation given the views stored so far
// (tracks.Costing.CheapestOp), and a stored view is read back from its
// relation. A node whose schema carries a Float is built as the recompute
// oracle builds it — first operations, from the base relations — so its
// float sums add in the oracle's order and Drift compares equal bits.
type viewTrees struct {
	cost   *tracks.Costing
	stored tracks.ViewSet
	scans  map[int]algebra.Node
	built  map[viewTreeKey]builtTree
}

type viewTreeKey struct {
	id    int
	exact bool
}

// builtTree is a node's last tree with the plan it was built from.
type builtTree struct {
	op   *dag.OpNode
	kids []algebra.Node
	tree algebra.Node
}

// store marks v stored: later trees read it back.
func (t *viewTrees) store(v *View) {
	t.stored[v.Eq.ID] = true
	t.scans[v.Eq.ID] = algebra.Scan(v.Rel.Def)
}

// rep returns e's tree.
func (t *viewTrees) rep(e *dag.EqNode) algebra.Node { return t.tree(e, map[int]bool{}, false) }

func (t *viewTrees) tree(e *dag.EqNode, path map[int]bool, exact bool) algebra.Node {
	if e.IsLeaf() {
		return e.Expr
	}
	exact = exact || slices.ContainsFunc(e.Schema().Cols, func(c catalog.Column) bool { return c.Type == value.Float })
	op := e.Ops[0]
	if !exact {
		if scan, ok := t.scans[e.ID]; ok {
			return scan
		}
		op = t.cost.CheapestOp(e, t.stored, path)
	}
	path[e.ID] = true
	kids := make([]algebra.Node, len(op.Children))
	for i, c := range op.Children {
		kids[i] = t.tree(c, path, exact)
	}
	delete(path, e.ID)
	key := viewTreeKey{e.ID, exact}
	if b, ok := t.built[key]; ok && b.op == op && slices.Equal(b.kids, kids) {
		return b.tree
	}
	tree := op.Template.WithChildren(kids)
	t.built[key] = builtTree{op: op, kids: kids, tree: tree}
	return tree
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
// the rows of the named base relations and ViewStates. Inside an open
// Group it returns ErrGroupOpen.
func (m *Maintainer) Snapshot(rels []string) (*Snapshot, error) {
	if m.grouping {
		return nil, ErrGroupOpen
	}
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
