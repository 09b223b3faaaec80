package delta

import (
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// A join streaming into a Linear aggregate folds a change of one side
// against a summary of its matches where Factor allows it (DESIGN.md §7):
// over the matches i of a changed row o, SUM(f(o)·g(i)) is f(o)·Σ g(i).
// Only Int and NULL factors fold so: two's-complement wrapping
// distributes, so the sums are the per-row fold's bit for bit. A Float
// takes the per-row fold, which keeps its addition order.

// obsFactored counts changes folded by side instead of per joined row.
var obsFactored = obs.C("delta.fold.factored_changes")

// Factoring is Factor's decision for one side of a join and an aggregate
// over the join.
type Factoring struct {
	key   []string // the side's join columns
	aggs  []algebra.AggSpec
	f, g  []expr.Expr // per aggregate: the factor of the changed row, the one summed over its matches; nil is 1
	group []colRef
}

// colRef is where a group-by column is read: the changed row, or (other)
// its first match.
type colRef struct {
	other bool
	pos   int
}

// Factor decides whether the fold of j's side s (0: j.L, 1: j.R; lin and
// rin are the children's schemas) into a splits by side; nil if not. It
// does when j has no residual, a is Linear, every group-by column lies on
// side s or is a join column of the other side, and every argument reads
// one side only or is a product of a factor from each.
func Factor(j *algebra.Join, a *algebra.Aggregate, lin, rin *catalog.Schema, s int) *Factoring {
	if j.Residual != nil || !Linear(a.Aggs) {
		return nil
	}
	in, sides := lin.Concat(rin), [2]*catalog.Schema{lin, rin}
	at := func(name string) (side, pos int, ok bool) { // as the aggregate resolves it
		i, err := in.Resolve(name)
		if i < len(lin.Cols) {
			return 0, i, err == nil
		}
		return 1, i - len(lin.Cols), err == nil
	}
	sideOf := func(e expr.Expr) int { // -1: no column; 2: both sides, or unresolved
		side := -1
		for _, c := range e.Columns(nil) {
			cs, _, ok := at(c)
			if !ok || side >= 0 && side != cs {
				return 2
			}
			side = cs
		}
		return side
	}
	fc := &Factoring{key: j.LeftCols(), aggs: a.Aggs, f: make([]expr.Expr, len(a.Aggs)), g: make([]expr.Expr, len(a.Aggs))}
	otherKey := j.RightCols()
	if s == 1 {
		fc.key, otherKey = otherKey, fc.key
	}
	for _, name := range a.GroupBy {
		cs, pos, ok := at(name)
		isKey := func(k string) bool { i, err := sides[cs].Resolve(k); return err == nil && i == pos }
		if !ok || cs != s && !slices.ContainsFunc(otherKey, isKey) {
			return nil
		}
		fc.group = append(fc.group, colRef{other: cs != s, pos: pos})
	}
	for i, ag := range a.Aggs {
		if ag.Arg == nil {
			continue
		}
		switch sideOf(ag.Arg) {
		case -1, s:
			fc.f[i] = ag.Arg
		case 1 - s:
			fc.g[i] = ag.Arg
		default:
			p, ok := ag.Arg.(expr.Arith)
			if !ok || p.Op != expr.Times {
				return nil
			}
			switch l, r := sideOf(p.L), sideOf(p.R); {
			case l == s && r == 1-s:
				fc.f[i], fc.g[i] = p.L, p.R
			case l == 1-s && r == s:
				fc.f[i], fc.g[i] = p.R, p.L
			default:
				return nil
			}
		}
	}
	return fc
}

// String renders the fold of one changed row per aggregate, e.g.
// "Price · Σ Quantity per T.Item".
func (fc *Factoring) String() string {
	terms := make([]string, len(fc.aggs))
	for i, ag := range fc.aggs {
		show := func(e expr.Expr) string {
			if ag.Func == algebra.Count {
				return "COUNT(" + e.String() + ")"
			}
			return e.String()
		}
		terms[i] = "Σ 1"
		if fc.g[i] != nil {
			terms[i] = "Σ " + show(fc.g[i])
		}
		if fc.f[i] != nil {
			terms[i] = show(fc.f[i]) + " · " + terms[i]
		}
	}
	return strings.Join(terms, ", ") + " per " + strings.Join(fc.key, ", ")
}

// sideFold is a Factoring compiled for one aggregate plan: f against the
// changed side's schema, g against the other's.
type sideFold struct {
	agg   *AggregatePlan
	group []colRef
	f, g  []*expr.Prog // nil is the constant 1
	fv    [2][]value.Value
}

// compile compiles fc for agg; nil when fc is nil.
func (fc *Factoring) compile(agg *AggregatePlan, mine, other *catalog.Schema) *sideFold {
	if fc == nil {
		return nil
	}
	n := len(fc.aggs)
	sf := &sideFold{agg: agg, group: fc.group, f: make([]*expr.Prog, n), g: make([]*expr.Prog, n),
		fv: [2][]value.Value{make([]value.Value, n), make([]value.Value, n)}}
	var err error
	for i := 0; i < n && err == nil; i++ {
		if fc.f[i] != nil {
			sf.f[i], err = expr.CompileProg(fc.f[i], mine)
		}
		if fc.g[i] != nil && err == nil {
			sf.g[i], err = expr.CompileProg(fc.g[i], other)
		}
	}
	if err != nil {
		return nil // Factor resolved every column, so never; fold per row
	}
	return sf
}

// matches is one join key's probe result for a window and, on a side
// that folds by side, its summary.
type matches struct {
	rows   []storage.Row
	live   int64   // Σ count
	cg, nn []int64 // per aggregate: Σ count·g, and Σ count where g is not NULL
	ok     bool    // every g is Int or NULL, and the rows agree on the group columns they supply
}

// summarise fills m's summary from m.rows.
func (sf *sideFold) summarise(m *matches) {
	m.live, m.ok = 0, true
	// append of make reuses the arrays: no allocation once they fit
	m.cg, m.nn = append(m.cg[:0], make([]int64, len(sf.g))...), append(m.nn[:0], make([]int64, len(sf.g))...)
	for _, r := range m.rows {
		m.live += r.Count
		for i, g := range sf.g {
			if g == nil {
				continue
			}
			switch v := g.Eval(r.Tuple); v.Kind {
			case value.Null:
			case value.Int:
				m.cg[i] += r.Count * v.I
				m.nn[i] += r.Count
			default:
				m.ok = false
				return
			}
		}
		for _, c := range sf.group {
			if c.other && !value.Same(r.Tuple[c.pos], m.rows[0].Tuple[c.pos]) {
				m.ok = false
				return
			}
		}
	}
	for i, g := range sf.g {
		if g == nil {
			m.cg[i], m.nn[i] = m.live, m.live
		}
	}
}

// fold folds one change — n copies of old out, of new in — against its
// matches m (non-empty, summarised ok) in O(1) per aggregate. It returns
// false with nothing folded when a factor of either half, or the SUM it
// would add to, is not Int or NULL: the per-row fold takes that change.
func (sf *sideFold) fold(m *matches, old, new value.Tuple, n int64) bool {
	a := sf.agg
	var gi [2]int
	for h, t := range [2]value.Tuple{old, new} {
		if t == nil {
			continue
		}
		for i, f := range sf.f {
			v := value.NewInt(1)
			if f != nil {
				v = f.Eval(t)
			}
			if v.Kind != value.Int && v.Kind != value.Null {
				return false
			}
			sf.fv[h][i] = v
		}
		for i, c := range sf.group {
			if c.other {
				a.gk[i] = m.rows[0].Tuple[c.pos]
			} else {
				a.gk[i] = t[c.pos]
			}
		}
		gi[h] = a.group()
		for i, ag := range a.a.Aggs {
			if ag.Func == algebra.Sum && a.accs[gi[h]].sums[i].Kind != value.Int {
				return false
			}
		}
	}
	for h, t := range [2]value.Tuple{old, new} {
		if t == nil {
			continue
		}
		sign := n
		if h == 0 {
			sign = -n
		}
		g := &a.accs[gi[h]]
		g.live += sign * m.live
		for i, v := range sf.fv[h] {
			if v.IsNull() {
				continue
			}
			g.counts[i] += sign * m.nn[i]
			if a.a.Aggs[i].Func == algebra.Sum {
				g.sums[i].I += sign * v.I * m.cg[i]
			}
		}
	}
	return true
}
