package core

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/tracks"
)

// Shielded restricts the exhaustive search using the Shielding Principle
// (Theorem 4.1): at an equivalence node that is an articulation node of
// the DAG, the part of the optimal view set lying below the node can be
// found by optimizing the node's sub-DAG locally.
//
// Concretely, for each articulation node A (innermost first) it computes
// the local optimum of A's subproblem with A materialized (the case the
// theorem covers exactly) and keeps a small menu of candidate markings
// for A's strict descendants: the empty set, the local optimum including
// A, and the local optimum without A itself. The global search then runs
// over the free nodes (those not strictly below any articulation node)
// crossed with the menus; every assembled candidate is still priced
// globally, so the restriction affects only which sets are explored.
//
// When the optimum materializes every articulation node, Theorem 4.1
// guarantees Shielded finds the true optimum; the extra menu entries make
// it robust (and, on every scenario in this repository's test suite,
// exactly equal to Exhaustive) when it does not.
func (o *Optimizer) Shielded() (*Result, error) {
	arts := o.D.ArticulationEqs()
	if len(arts) == 0 {
		// Nothing shields (rule rewrites can bypass every interior node,
		// e.g. selection pushdown around an aggregate). Fall back to
		// exhaustive search while it is affordable, else to greedy — the
		// degradation path the paper's Section 5 prescribes.
		if len(o.candidates()) <= 12 {
			r, err := o.Exhaustive()
			if err != nil {
				return nil, err
			}
			r.Method = "shielded (no articulation nodes: exhaustive)"
			return r, nil
		}
		r := o.Greedy()
		r.Method = "shielded (no articulation nodes: greedy fallback)"
		return r, nil
	}
	res := &Result{Method: "shielded"}

	// Keep only outermost articulation nodes as boundaries; inner ones
	// are handled inside their region's local optimization.
	outer := outermost(o.D, arts)

	// Below: strict descendants of each outer articulation node.
	below := map[int]bool{}
	for _, a := range outer {
		for _, e := range o.D.Descendants(a) {
			if e != a && !e.IsLeaf() {
				below[e.ID] = true
			}
		}
	}
	var free []*dag.EqNode
	for _, e := range o.candidates() {
		if !below[e.ID] && !isIn(outer, e) {
			free = append(free, e)
		}
	}

	// Menu per articulation node.
	menus := make([][]menuEntry, len(outer))
	for i, a := range outer {
		local, err := o.localOptimum(a)
		if err != nil {
			return nil, err
		}
		res.Explored += local.Explored
		withA := local.Best.Set.IDs()
		withoutA := exclude(withA, a.ID)
		entries := []menuEntry{{ids: nil}, {ids: withA}}
		if len(withoutA) != len(withA) {
			entries = append(entries, menuEntry{ids: withoutA})
		}
		menus[i] = dedupeEntries(entries)
	}

	// Cross product: free-node subsets × menu choices.
	nFree := 1 << len(free)
	assemble := func(mask int, chosen []int) {
		vs := tracks.RootSet(o.D)
		for j, e := range free {
			if mask&(1<<j) != 0 {
				vs[e.ID] = true
			}
		}
		for _, id := range chosen {
			vs[id] = true
		}
		ev := o.evaluate(vs)
		res.Explored++
		res.All = append(res.All, ev)
	}
	var rec func(mask, i int, chosen []int)
	rec = func(mask, i int, chosen []int) {
		if i == len(menus) {
			assemble(mask, chosen)
			return
		}
		for _, entry := range menus[i] {
			rec(mask, i+1, append(chosen[:len(chosen):len(chosen)], entry.ids...))
		}
	}
	for mask := 0; mask < nFree; mask++ {
		rec(mask, 0, nil)
	}
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res, nil
}

// localOptimum optimizes the sub-DAG rooted at an articulation node as
// its own maintenance problem (the paper's D_N), with the node
// materialized.
func (o *Optimizer) localOptimum(a *dag.EqNode) (*Result, error) {
	sub := withRoot(o.D, a) // shares nodes; only the root differs
	subOpt := &Optimizer{
		D:       sub,
		Cost:    tracks.NewCosting(sub, o.Cost.Model),
		Types:   o.Types,
		MaxSets: o.MaxSets,
	}
	// Restrict candidates to descendants of a by marking others leaf-like
	// — handled by candidate filtering below.
	desc := map[int]bool{}
	for _, e := range o.D.Descendants(a) {
		desc[e.ID] = true
	}
	cands := []*dag.EqNode{}
	for _, e := range subOpt.candidates() {
		if desc[e.ID] {
			cands = append(cands, e)
		}
	}
	res := &Result{Method: "local"}
	if len(cands) > 12 {
		// Local subproblems beyond exhaustive reach fall back to greedy
		// hill-climbing; the assembled candidates are still priced
		// globally, so this only narrows the menu, never corrupts costs.
		return subOpt.Greedy(), nil
	}
	n := 1 << len(cands)
	for mask := 0; mask < n; mask++ {
		res.All = append(res.All, subOpt.evaluate(subOpt.setOf(cands, uint64(mask))))
	}
	res.Explored = len(res.All)
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res, nil
}

// withRoot returns a DAG view sharing all nodes but rooted at a.
func withRoot(d *dag.DAG, a *dag.EqNode) *dag.DAG {
	nd := *d
	nd.Root = a
	nd.Roots = []*dag.EqNode{a}
	return &nd
}

func outermost(d *dag.DAG, arts []*dag.EqNode) []*dag.EqNode {
	var out []*dag.EqNode
	for _, a := range arts {
		inner := false
		for _, b := range arts {
			if a == b {
				continue
			}
			for _, e := range d.Descendants(b) {
				if e == a {
					inner = true
				}
			}
		}
		if !inner {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func isIn(nodes []*dag.EqNode, e *dag.EqNode) bool {
	for _, n := range nodes {
		if n == e {
			return true
		}
	}
	return false
}

func exclude(ids []int, id int) []int {
	out := make([]int, 0, len(ids))
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// menuEntry is one candidate marking of an articulation node's region.
type menuEntry struct{ ids []int }

func dedupeEntries(entries []menuEntry) []menuEntry {
	seen := map[string]bool{}
	var out []menuEntry
	for _, e := range entries {
		k := keyOfIDs(e.ids)
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

func keyOfIDs(ids []int) string {
	s := append([]int{}, ids...)
	sort.Ints(s)
	b := make([]byte, 0, len(s)*3)
	for _, x := range s {
		b = append(b, byte(x), byte(x>>8), ',')
	}
	return string(b)
}
