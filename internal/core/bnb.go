// Branch-and-bound over the view-set lattice.
//
// One depth-first search assigns the candidate views one bit at a time,
// 0-branch first, and prunes any partial assignment whose monotone lower
// bound — the sum of the cheapest weighted update-only charge each
// forced-in view can ever incur (tracks.Costing.WeightedUpdateLB on its
// singleton set) — strictly exceeds the incumbent. Because delta flows
// do not depend on the view set, every superset of a partial set pays at
// least that bound, so pruning never discards the optimum. The search
// runs on the caller's goroutine in a fixed order, so the sets it costs,
// and with them Explored, Pruned and All, are the same on every run —
// truncated runs included.
package core

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/tracks"
)

// Registry mirrors of search effort. The DFS tallies privately and folds
// once per run.
var (
	obsSearchRuns      = obs.C("core.search.runs")
	obsSearchNodes     = obs.C("core.search.nodes_expanded")
	obsSearchEvaluated = obs.C("core.search.evaluated")
	obsSearchPruned    = obs.C("core.search.bound_prunes")
)

// BranchAndBound runs Algorithm OptimalViewSet as a branch-and-bound
// search. It returns the same Best as Exhaustive (and the same All
// modulo sets the bound excluded) while costing far fewer view sets.
// Past the MaxSets budget it returns the best incumbent with Truncated
// set.
func (o *Optimizer) BranchAndBound() (*Result, error) {
	sp := obs.Trace.Start("core.branch_and_bound", 0)
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

	s := &bnbSearch{o: o, cands: cands, budget: limit, incumbent: math.Inf(1)}
	// Per-candidate bound contributions: candLB[i] is the weighted
	// update-only charge candidate i incurs on its cheapest possible
	// propagation path (the roots-free singleton set's WeightedUpdateLB,
	// so only the candidate itself is ever charged). Flows are
	// view-set-independent and a full track's restriction below the
	// candidate is one of the singleton enumeration's assignments, so
	// any track of any superset charges the candidate at least candLB[i].
	// Summing over a partial set's members therefore lower-bounds the
	// cost of every superset, and the DFS bound becomes a running sum
	// with no per-mask track enumeration at all.
	s.candLB = make([]float64, len(cands))
	for i, e := range cands {
		// The bound is taken on the roots plus the candidate: roots
		// charge nothing here, so including them changes no cost — but
		// it makes the bundle key match the singleton view sets the
		// search evaluates later, sharing their track enumeration. With
		// CountRootUpdate the roots' own charge would be double-counted
		// across candidates; keep the pure singleton then.
		one := o.setOf(cands, 1<<i)
		vs := one
		if o.Cost.CountRootUpdate {
			vs = tracks.NewViewSet(e)
		}
		s.candLB[i] = o.Cost.WeightedUpdateLB(vs, o.Types)
		// Price the roots plus the candidate in full (without
		// CountRootUpdate, the bundle just built): the best such set is
		// an incumbent before the DFS starts. Any real set costs at least
		// the optimum, so the optimum is still found; only fewer sets
		// are costed.
		if w := o.evaluate(one).Weighted; w < s.incumbent {
			s.incumbent = w
		}
	}
	obsSearchEvaluated.Add(int64(len(cands)))

	s.dfs(len(cands)-1, 0, 0)
	obsSearchNodes.Add(s.nodes)
	obsSearchEvaluated.Add(int64(len(s.all)))
	obsSearchPruned.Add(s.pruned)

	// The 0-branch comes first and never extends the bound, so the root
	// set is always costed: All is never empty.
	res := &Result{Method: "exhaustive branch-and-bound", All: s.all, Truncated: s.truncated}
	res.Explored = len(res.All)
	res.Pruned = (1 << len(cands)) - res.Explored
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res, nil
}

// bnbSearch is the state of one BranchAndBound call.
type bnbSearch struct {
	o     *Optimizer
	cands []*dag.EqNode
	// candLB[i] is candidate i's additive lower-bound contribution.
	candLB []float64
	// incumbent is the best weighted cost seen so far.
	incumbent float64
	budget    int
	truncated bool
	// all lists the full view sets the DFS costed, in DFS order.
	all []Evaluated
	// nodes counts partial assignments visited; pruned counts subtrees
	// cut by the bound.
	nodes, pruned int64
}

// dfs assigns candidate bits from idx down to 0, 0-branch first. The
// 1-branch extends the additive lower bound (the 0-branch inherits it:
// the forced set is unchanged) and prunes strictly, keeping the incumbent
// a true upper bound on the optimum at all times.
func (s *bnbSearch) dfs(idx int, mask uint64, lb float64) {
	if len(s.all) >= s.budget {
		// An unpruned subtree reached after the budget expired is work
		// the unbudgeted search would have done: genuine truncation.
		// (A search that finishes exactly at the budget never re-enters
		// dfs, so the flag is not a false positive.)
		s.truncated = true
		return
	}
	s.nodes++
	if idx < 0 {
		ev := s.o.evaluate(s.o.setOf(s.cands, mask))
		if ev.Weighted < s.incumbent {
			s.incumbent = ev.Weighted
		}
		s.all = append(s.all, ev)
		return
	}
	s.dfs(idx-1, mask, lb)
	lb2 := lb + s.candLB[idx]
	if lb2 > s.incumbent {
		s.pruned++
		return
	}
	s.dfs(idx-1, mask|1<<idx, lb2)
}
