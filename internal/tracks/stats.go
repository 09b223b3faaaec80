// Package tracks implements the machinery of the paper's Section 3.3–3.4:
// enumeration of subdags and update tracks (Definitions 3.2/3.3), the
// queries posed along a track (Example 3.2), and the estimation of query
// and update costs for a view set under a transaction type, under any
// monotonic cost model.
//
// The same query-requirement logic (QueriesForTrack) drives both the cost
// estimator here and the runtime maintenance engine, so estimated and
// measured page I/O cannot drift apart structurally.
package tracks

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/expr"
)

// Estimator derives statistics for equivalence nodes from base-relation
// statistics, memoized per node.
type Estimator struct {
	D    *dag.DAG
	memo map[int]catalog.Stats
}

// NewEstimator returns an estimator over the DAG.
func NewEstimator(d *dag.DAG) *Estimator {
	return &Estimator{D: d, memo: map[int]catalog.Stats{}}
}

// StatsOf estimates the cardinality and the per-column distinct counts
// and fan-outs of an equivalence node's result. The per-column maps hold
// both qualified and bare column names; readers try the qualified name
// first (statOf).
func (e *Estimator) StatsOf(n *dag.EqNode) catalog.Stats {
	if st, ok := e.memo[n.ID]; ok {
		return st
	}
	st := e.statsOfTree(e.D.RepTree(n))
	e.memo[n.ID] = st
	return st
}

func (e *Estimator) statsOfTree(n algebra.Node) catalog.Stats {
	switch t := n.(type) {
	case dag.Ref:
		return e.StatsOf(t.Eq)
	case *algebra.Rel:
		base := t.Def.Stats
		out := newStats(base.Card)
		for _, c := range t.Def.Schema.Cols {
			d := base.DistinctOf(c.Name)
			out.Distinct[c.Name] = d
			out.Distinct[c.QName()] = d
			if f, ok := base.Fanout[c.Name]; ok {
				out.Fanout[c.Name] = f
				out.Fanout[c.QName()] = f
			}
		}
		return out
	case *algebra.Select:
		in := e.statsOfTree(t.Input)
		sel := Selectivity(t.Pred, in)
		out := scaleStats(in, sel)
		return out
	case *algebra.Project:
		in := e.statsOfTree(t.Input)
		out := newStats(in.Card)
		for _, it := range t.Items {
			name := it.As
			if c, ok := it.E.(expr.Col); ok {
				d := distinctOf(in, c.Name)
				f, skewed := statOf(in.Fanout, c.Name)
				if name == "" {
					name = c.Name
				}
				for _, k := range []string{name, bareOf(name), c.Name} {
					out.Distinct[k] = d
					if skewed {
						out.Fanout[k] = f
					}
				}
				continue
			}
			if name != "" {
				out.Distinct[name] = math.Min(in.Card, math.Max(1, in.Card/3))
			}
		}
		return out
	case *algebra.Join:
		l := e.statsOfTree(t.L)
		r := e.statsOfTree(t.R)
		dl := distinctOfCols(l, t.LeftCols())
		dr := distinctOfCols(r, t.RightCols())
		denom := math.Max(dl, dr)
		card := l.Card * r.Card
		if denom > 0 {
			card = l.Card * r.Card / denom
		}
		out := newStats(card)
		// A bare name both sides carry (every Figure 5 join collides on
		// Item) keeps the right side's figure. Bare keys only serve
		// lookups by index column (ViewIndexCols), which is a join column
		// the condition equates, so either side would do; the qualified
		// keys are authoritative and statOf tries them first.
		for k, v := range l.Distinct {
			out.Distinct[k] = math.Min(v, card)
		}
		for k, v := range r.Distinct {
			out.Distinct[k] = math.Min(v, card)
		}
		// A row of one side meets the other side's rows on the join
		// columns, so each column's excess over its uniform fan-out
		// multiplies by the other side's excess there. For an equated
		// column the two products are the same number, so S.Item, T.Item
		// and the bare Item agree whichever side is asked.
		lskew, rskew := skewOf(l, t.LeftCols()), skewOf(r, t.RightCols())
		for k := range l.Distinct {
			carryFanout(&out, l, k, rskew)
		}
		for k := range r.Distinct {
			carryFanout(&out, r, k, lskew)
		}
		return out
	case *algebra.Aggregate:
		in := e.statsOfTree(t.Input)
		card := math.Min(in.Card, distinctOfCols(in, t.GroupBy))
		out := newStats(card)
		for _, g := range t.GroupBy {
			d := math.Min(distinctOf(in, g), card)
			out.Distinct[g] = d
			out.Distinct[bareOf(g)] = d
		}
		for _, a := range t.Aggs {
			out.Distinct[a.As] = card
		}
		return out
	case *algebra.Distinct:
		in := e.statsOfTree(t.Input)
		return in // distinct cardinalities dominate; Card is an upper bound
	case *algebra.Union:
		l := e.statsOfTree(t.L)
		r := e.statsOfTree(t.R)
		out := catalog.Stats{Card: l.Card + r.Card, Distinct: map[string]float64{}}
		for k, v := range l.Distinct {
			out.Distinct[k] = v
		}
		for k, v := range r.Distinct {
			out.Distinct[k] = math.Max(out.Distinct[k], v)
		}
		return out
	case *algebra.Diff:
		return e.statsOfTree(t.L)
	default:
		return catalog.Stats{Card: 1}
	}
}

func newStats(card float64) catalog.Stats {
	return catalog.Stats{Card: card, Distinct: map[string]float64{}, Fanout: map[string]float64{}}
}

func scaleStats(in catalog.Stats, sel float64) catalog.Stats {
	out := newStats(in.Card * sel)
	for k, v := range in.Distinct {
		out.Distinct[k] = math.Max(1, math.Min(v, out.Card))
	}
	for k := range in.Fanout {
		carryFanout(&out, in, k, 1)
	}
	return out
}

func bareOf(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

// statOf looks a column up in a per-column statistics map: the exact
// (qualified) name first, then the bare name, so S.Item is never answered
// with the figure a join's other side left under the bare Item.
func statOf(m map[string]float64, col string) (float64, bool) {
	if v, ok := m[col]; ok && v > 0 {
		return v, true
	}
	v, ok := m[bareOf(col)]
	return v, ok && v > 0
}

// distinctOf looks up a column's distinct count, defaulting to Card.
func distinctOf(st catalog.Stats, col string) float64 {
	if d, ok := statOf(st.Distinct, col); ok {
		return d
	}
	if st.Card < 1 {
		return 1
	}
	return st.Card
}

// distinctOfCols estimates the distinct count of a column combination as
// the capped product of the individual counts.
func distinctOfCols(st catalog.Stats, cols []string) float64 {
	if len(cols) == 0 {
		return 1
	}
	d := 1.0
	for _, c := range cols {
		d *= distinctOf(st, c)
		if d > st.Card && st.Card >= 1 {
			return st.Card
		}
	}
	return math.Max(1, d)
}

// uniformFanout is the number of tuples sharing one value of cols if
// every value occurred equally often: Card/Distinct, at least 1.
func uniformFanout(st catalog.Stats, cols []string) float64 {
	return math.Max(1, st.Card/distinctOfCols(st, cols))
}

// fanoutOf is the number of tuples of a stored or derived relation a
// probe on cols is expected to find: the size-biased figure the
// statistics recorded for a single column, and the uniform one where
// there is none (several columns, a derived node nothing skewed feeds),
// never below it. Every charged lookup, join bound and join delta size
// reads its fan-out here.
func fanoutOf(st catalog.Stats, cols []string) float64 {
	u := uniformFanout(st, cols)
	if len(cols) == 1 {
		if f, ok := statOf(st.Fanout, cols[0]); ok && f > u {
			return f
		}
	}
	return u
}

// skewOf is fanoutOf as a multiple of the uniform figure: exactly 1 on
// uniform data, which is what keeps derived figures bit-equal to
// Card/Distinct there.
func skewOf(st catalog.Stats, cols []string) float64 {
	return fanoutOf(st, cols) / uniformFanout(st, cols)
}

// carryFanout gives column key of a derived node the excess fan-out it
// had in the input in, times factor, over the node's own uniform figure
// (out.Card and out.Distinct[key] must be set). Every key gets an entry,
// as in Distinct, so a qualified lookup never falls through to a bare
// name the other side of a join owns; with no excess the entry is the
// uniform figure itself.
func carryFanout(out *catalog.Stats, in catalog.Stats, key string, factor float64) {
	col := []string{key}
	out.Fanout[key] = math.Min(uniformFanout(*out, col)*skewOf(in, col)*factor, math.Max(1, out.Card))
}

// Selectivity estimates the fraction of tuples satisfying a predicate:
// equality with a constant is 1/distinct, column=column equality is
// 1/max(distinct), anything else defaults to 1/3 per conjunct.
func Selectivity(p expr.Expr, st catalog.Stats) float64 {
	sel := 1.0
	for _, c := range expr.Conjuncts(p) {
		sel *= conjunctSelectivity(c, st)
	}
	return sel
}

func conjunctSelectivity(c expr.Expr, st catalog.Stats) float64 {
	cmp, ok := c.(expr.Cmp)
	if !ok {
		return 1.0 / 3
	}
	lc, lok := cmp.L.(expr.Col)
	rc, rok := cmp.R.(expr.Col)
	if cmp.Op == expr.EQ {
		switch {
		case lok && rok:
			return 1 / math.Max(1, math.Max(distinctOf(st, lc.Name), distinctOf(st, rc.Name)))
		case lok:
			return 1 / math.Max(1, distinctOf(st, lc.Name))
		case rok:
			return 1 / math.Max(1, distinctOf(st, rc.Name))
		}
	}
	return 1.0 / 3
}
