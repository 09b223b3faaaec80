package maintain

import (
	"sort"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// trackPlan is what the cost model chose for one transaction type: the
// update track and its query list. Plans live in Maintainer.plans keyed
// by the type's canonical name. txn.MergedType names a window by its net
// delta size per relation as well as by relation and kind, because the
// cheapest track depends on those sizes — so a long run sees many names,
// and a trackPlan must stay this small. Everything compiled, and every
// scratch buffer, belongs to the operation nodes the track crosses
// (Maintainer.steps), not to the plan.
type trackPlan struct {
	track *tracks.Track
	// queries is the costed track's query list (tracks.TrackCost.Queries):
	// every point query the cost model expects this track to pose.
	queries []tracks.QueryCharge
	// shared counts the queries MQO merges away — posed by more than one
	// consumer along the track, answered once per window by the memo.
	shared int
}

// The plan cache on /metrics: track plans and compiled steps held by
// the maintainer that last changed either (shards hold alike), and steps
// compiled in total. A healthy steady state shows tracks growing with
// the window shapes seen, steps bounded by the operation nodes those
// tracks cross, and compiles flat after warm-up.
var (
	obsPlanTracks   = obs.G("maintain.plan_cache.tracks")
	obsPlanSteps    = obs.G("maintain.plan_cache.steps")
	obsPlanCompiles = obs.C("maintain.plan_cache.compiles")
)

// planStep is the compiled propagation step of one operation node: the
// field matching the operation's kind is set. Operators with no
// compile-time state (Distinct, Union, Diff) leave all fields nil and
// take the generic path.
type planStep struct {
	sel  *delta.SelectPlan
	proj *delta.ProjectPlan
	join *delta.JoinPlan
	agg  *delta.AggregatePlan
	// net holds a join's netted delta (both inputs changed) for the window.
	net delta.Delta
}

// setArena threads the maintainer's per-window arena into the plans
// that derive tuples (projection outputs, join concatenations,
// aggregate keys and output rows).
func (st *planStep) setArena(a *value.Arena) {
	if st.proj != nil {
		st.proj.SetArena(a)
	}
	if st.join != nil {
		st.join.SetArena(a)
	}
	if st.agg != nil {
		st.agg.SetArena(a)
	}
}

// StreamsInto reports the node whose aggregate step takes e's join output
// row by row as the join derives it, nil when e's delta has to exist. It
// need not when e is an un-materialized join (storage, sidecars and the
// window hook never ask for its delta) whose only consumer on the track
// is the tracked aggregate of a materialized node, all SUM or COUNT
// (delta.Linear): that fold cancels un-netted rows and poses no query a
// cancelled row could add. A function of the view set and the track; a
// window also needs the consumer's live counts known (no stale groups).
func (m *Maintainer) StreamsInto(tr *tracks.Track, e *dag.EqNode) *dag.EqNode {
	if op := tr.Choice[e.ID]; op == nil || m.views[e.ID] != nil {
		return nil
	} else if _, ok := op.Template.(*algebra.Join); !ok {
		return nil
	}
	var into *dag.EqNode
	for _, p := range tr.Order {
		op := tr.Choice[p.ID]
		for _, ch := range op.Children {
			if ch != e {
				continue
			}
			agg, ok := op.Template.(*algebra.Aggregate)
			if v := m.views[p.ID]; into != nil || !ok || v == nil || v.aggOp != op || !delta.Linear(agg.Aggs) {
				return nil
			}
			into = p
		}
	}
	return into
}

// viewSetKey canonicalizes a view set for plan-cache invalidation.
func viewSetKey(vs tracks.ViewSet) string {
	ids := vs.IDs()
	sort.Ints(ids)
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
	}
	return string(b)
}

// planFor returns the plan for t, costing the view set's tracks for it
// on first use. A changed view set first drops every cached plan and
// compiled step: tracks are costed against the view set, and the steps
// of operations no track crosses any more would only hold scratch.
func (m *Maintainer) planFor(t *txn.Type) *trackPlan {
	if vsk := viewSetKey(m.VS); vsk != m.planVS {
		clear(m.plans)
		clear(m.steps)
		m.planVS = vsk
	}
	if p := m.plans[t.Name]; p != nil {
		return p
	}
	best, _ := m.Cost.CostViewSet(m.VS, t)
	tr := best.Track
	if tr == nil {
		tr = &tracks.Track{Choice: map[int]*dag.OpNode{}}
	}
	p := &trackPlan{track: tr, queries: best.Queries, shared: best.SharedQueries()}
	m.plans[t.Name] = p
	obsPlanTracks.Set(float64(len(m.plans)))
	return p
}

// stepFor returns op's compiled propagation step, compiling it on first
// use. A step is a function of the operation node alone, so every track
// that crosses op shares the one step and its scratch (probe cache, key
// encoder, normalizer tables, output delta). That is safe because a
// maintainer runs one window at a time and a track visits each
// equivalence node once: a step is applied at most once per window, and
// its output stays valid until its next application — the same contract
// a recurring window shape already had with itself.
func (m *Maintainer) stepFor(op *dag.OpNode) (*planStep, error) {
	if st := m.steps[op]; st != nil {
		return st, nil
	}
	st, err := compileStep(op)
	if err != nil {
		return nil, err
	}
	st.setArena(&m.arena)
	m.steps[op] = st
	obsPlanCompiles.Inc()
	obsPlanSteps.Set(float64(len(m.steps)))
	return st, nil
}

// compileStep precompiles the delta propagation of one operation node
// against its children's schemas. Deltas flowing along a track carry
// their equivalence node's schema (the DAG's strict-equivalence
// invariant), so compile-time resolution against op.Children[i].Schema()
// matches what per-call compilation against d.Schema would produce.
func compileStep(op *dag.OpNode) (*planStep, error) {
	st := &planStep{}
	switch t := op.Template.(type) {
	case *algebra.Select:
		p, err := delta.CompileSelect(t, op.Children[0].Schema())
		if err != nil {
			return nil, err
		}
		st.sel = p
	case *algebra.Project:
		p, err := delta.CompileProject(t, op.Children[0].Schema())
		if err != nil {
			return nil, err
		}
		st.proj = p
	case *algebra.Join:
		p, err := delta.CompileJoin(t, op.Children[0].Schema(), op.Children[1].Schema())
		if err != nil {
			return nil, err
		}
		st.join = p
	case *algebra.Aggregate:
		p, err := delta.CompileAggregate(t, op.Children[0].Schema())
		if err != nil {
			return nil, err
		}
		st.agg = p
	}
	return st, nil
}
