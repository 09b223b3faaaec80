// Package core implements the paper's primary contribution: choosing the
// optimal set of additional views to materialize for the incremental
// maintenance of a given materialized view.
//
//   - Exhaustive is Algorithm OptimalViewSet (Figure 4): it enumerates
//     every view set (subset of non-leaf equivalence nodes containing the
//     root), prices each under every transaction type via update-track
//     enumeration, and returns the one with minimum weighted cost. It is
//     exact under any monotonic cost model (Theorem 3.1).
//   - BranchAndBound finds the same optimum by one depth-first search
//     that skips every subtree an additive lower bound excludes.
//   - Shielded exploits the Shielding Principle (Theorem 4.1): at
//     equivalence nodes that are articulation nodes of the DAG, local
//     optima can be combined, restricting the search-space explosion.
//   - SingleTree, HeuristicMarking and Greedy are the heuristics of
//     Section 5.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// Optimizer selects additional views to materialize.
type Optimizer struct {
	D     *dag.DAG
	Cost  *tracks.Costing
	Types []*txn.Type
	// MaxSets is a soft budget on exhaustive enumeration (0 = 1<<20).
	// When the lattice is larger, the search evaluates up to MaxSets
	// view sets and returns the best incumbent with Result.Truncated set
	// instead of erroring.
	MaxSets int
}

// New builds an optimizer over the DAG for the workload under the model.
func New(d *dag.DAG, m cost.Model, types []*txn.Type) *Optimizer {
	return &Optimizer{D: d, Cost: tracks.NewCosting(d, m), Types: types}
}

// Evaluated is one costed view set.
type Evaluated struct {
	Set      tracks.ViewSet
	Weighted float64
	PerTxn   map[string]tracks.TrackCost
}

// Result reports an optimization outcome.
type Result struct {
	Method string
	Best   Evaluated
	// All lists every view set costed, sorted by weighted cost
	// (ascending). Heuristics list only what they explored.
	All []Evaluated
	// Explored counts view sets costed — the search-effort metric the
	// paper's Sections 4–5 are about reducing. For BranchAndBound it
	// counts the sets the DFS costed.
	Explored int
	// Pruned counts view sets excluded without full evaluation (the
	// lattice size minus Explored; zero for methods that do not prune).
	Pruned int
	// Truncated reports that the MaxSets budget expired before the
	// search was complete: Best is the best incumbent found, not a
	// proven optimum.
	Truncated bool
}

// AdditionalViews returns the chosen views beyond the roots, sorted by ID.
func (r *Result) AdditionalViews(d *dag.DAG) []*dag.EqNode {
	var out []*dag.EqNode
	for _, e := range d.NonLeafEqs() {
		if !d.IsRoot(e) && r.Best.Set[e.ID] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// evaluate prices one view set.
func (o *Optimizer) evaluate(vs tracks.ViewSet) Evaluated {
	w, per := o.Cost.WeightedCost(vs, o.Types)
	return Evaluated{Set: vs, Weighted: w, PerTxn: per}
}

// candidates returns the non-root, non-leaf equivalence nodes.
func (o *Optimizer) candidates() []*dag.EqNode {
	var out []*dag.EqNode
	for _, e := range o.D.NonLeafEqs() {
		if !o.D.IsRoot(e) {
			out = append(out, e)
		}
	}
	return out
}

// setOf returns the roots plus the candidates whose bits are set in mask.
func (o *Optimizer) setOf(cands []*dag.EqNode, mask uint64) tracks.ViewSet {
	vs := tracks.RootSet(o.D)
	for i, e := range cands {
		if mask&(1<<i) != 0 {
			vs[e.ID] = true
		}
	}
	return vs
}

// Exhaustive runs Algorithm OptimalViewSet: every subset of E_V
// containing the root is costed and the minimum chosen. When the lattice
// exceeds the MaxSets budget, the first MaxSets sets (in bitmask order)
// are costed and the result carries Truncated instead of an error; only
// a candidate count too large for a 63-bit mask still errors.
func (o *Optimizer) Exhaustive() (*Result, error) {
	sp := obs.Trace.Start("core.exhaustive", 0)
	defer sp.Finish()
	obsSearchRuns.Inc()
	cands := o.candidates()
	if len(cands) >= 63 {
		return nil, fmt.Errorf("core: %d candidate views overflow the enumeration bitmask; use Shielded or a heuristic", len(cands))
	}
	limit := o.MaxSets
	if limit <= 0 {
		limit = 1 << 20
	}
	res := &Result{Method: "exhaustive"}
	n := uint64(1) << len(cands)
	if n > uint64(limit) {
		n = uint64(limit)
		res.Truncated = true
	}
	for mask := uint64(0); mask < n; mask++ {
		res.All = append(res.All, o.evaluate(o.setOf(cands, mask)))
	}
	res.Explored = len(res.All)
	res.Pruned = (1 << len(cands)) - res.Explored
	obsSearchNodes.Add(int64(res.Explored))
	obsSearchEvaluated.Add(int64(res.Explored))
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res, nil
}

func sortEvaluated(evs []Evaluated) {
	sort.Slice(evs, func(i, j int) bool { return lessEvaluated(evs[i], evs[j]) })
}

// lessEvaluated is the total order on costed view sets: weighted cost,
// then set size (less space first), then the numerically smallest member
// sequence — equivalently the lowest candidate bitmask among equal-size
// ties. Being total, it makes Best and the All ordering independent of
// evaluation order, so BranchAndBound's All is a subsequence of
// Exhaustive's.
func lessEvaluated(a, b Evaluated) bool {
	if a.Weighted != b.Weighted {
		return a.Weighted < b.Weighted
	}
	if len(a.Set) != len(b.Set) {
		return len(a.Set) < len(b.Set)
	}
	ai, bi := a.Set.IDs(), b.Set.IDs()
	for k := range ai {
		if ai[k] != bi[k] {
			return ai[k] < bi[k]
		}
	}
	return false
}

// Evaluate prices an explicitly chosen view set (must include the root;
// it is added if missing). Exposed for reports and the paper's tables.
func (o *Optimizer) Evaluate(views ...*dag.EqNode) Evaluated {
	vs := tracks.RootSet(o.D)
	for _, v := range views {
		vs[v.ID] = true
	}
	return o.evaluate(vs)
}

// Greedy is the approximate-costing heuristic of Section 5: starting from
// the empty additional set, repeatedly add the single view with the best
// cost improvement until no addition helps.
func (o *Optimizer) Greedy() *Result {
	res := &Result{Method: "greedy"}
	cands := o.candidates()
	current := tracks.RootSet(o.D)
	cur := o.evaluate(current)
	res.All = append(res.All, cur)
	res.Explored++
	for {
		bestGain := 0.0
		var bestSet tracks.ViewSet
		var bestEv Evaluated
		for _, e := range cands {
			if current[e.ID] {
				continue
			}
			trial := current.Clone()
			trial[e.ID] = true
			ev := o.evaluate(trial)
			res.Explored++
			res.All = append(res.All, ev)
			if gain := cur.Weighted - ev.Weighted; gain > bestGain {
				bestGain = gain
				bestSet = trial
				bestEv = ev
			}
		}
		if bestSet == nil {
			break
		}
		current, cur = bestSet, bestEv
	}
	sortEvaluated(res.All)
	res.Best = cur
	return res
}

// SingleTree is the first heuristic of Section 5: pick the expression
// tree with the lowest cost for evaluating V as a query, then optimize
// exhaustively over only that tree's equivalence nodes.
func (o *Optimizer) SingleTree() (*Result, error) {
	onTree := o.queryOptimalTreeNodes()
	var cands []*dag.EqNode
	for _, e := range o.candidates() {
		if onTree[e.ID] {
			cands = append(cands, e)
		}
	}
	res := &Result{Method: "single-tree"}
	if len(cands) >= 30 {
		return nil, fmt.Errorf("core: single-tree still has %d candidates", len(cands))
	}
	n := 1 << len(cands)
	for mask := 0; mask < n; mask++ {
		res.All = append(res.All, o.evaluate(o.setOf(cands, uint64(mask))))
	}
	res.Explored = len(res.All)
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res, nil
}

// queryOptimalTreeNodes marks the equivalence nodes on the cheapest
// evaluation tree of the root: per class, the op minimizing the summed
// full-evaluation cost of its children is chosen.
func (o *Optimizer) queryOptimalTreeNodes() map[int]bool {
	none := tracks.RootSet(o.D)
	onTree := map[int]bool{}
	var walk func(e *dag.EqNode)
	walk = func(e *dag.EqNode) {
		if e.IsLeaf() || onTree[e.ID] {
			return
		}
		onTree[e.ID] = true
		var best *dag.OpNode
		bestCost := math.Inf(1)
		for _, op := range e.Ops {
			var sum float64
			for _, ch := range op.Children {
				sum += o.Cost.EvalCost(ch, none)
			}
			if sum < bestCost {
				bestCost = sum
				best = op
			}
		}
		if best != nil {
			for _, ch := range best.Children {
				walk(ch)
			}
		}
	}
	walk(o.D.Root)
	return onTree
}

// HeuristicMarking is the single-view-set heuristic of Section 5: on the
// query-optimal tree, mark every equivalence node that is the parent of a
// join or grouping/aggregation operator or the child of a duplicate
// elimination, then keep that marking only if it beats materializing
// nothing.
func (o *Optimizer) HeuristicMarking() *Result {
	onTree := o.queryOptimalTreeNodes()
	vs := tracks.RootSet(o.D)
	for _, e := range o.candidates() {
		if !onTree[e.ID] {
			continue
		}
		mark := false
		for _, op := range e.Ops {
			if k := op.Kind(); k == algebra.KindJoin || k == algebra.KindAggregate {
				mark = true
			}
		}
		for _, p := range e.Parents {
			if p.Kind() == algebra.KindDistinct {
				mark = true
			}
		}
		if mark {
			vs[e.ID] = true
		}
	}
	marked := o.evaluate(vs)
	empty := o.evaluate(tracks.RootSet(o.D))
	res := &Result{Method: "heuristic-marking", Explored: 2, All: []Evaluated{marked, empty}}
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res
}
