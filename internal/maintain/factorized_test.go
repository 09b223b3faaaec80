package maintain_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestFactorizedPushDifferential holds the factorized aggregate push to
// a DAG without it. Each trial draws a schema of three relations A, B, C
// (id, join column j, nullable Int factor v), each keyed on j or not,
// joined on j, and an aggregate grouped by one of the join columns over
// SUM of one-, two- and three-sided products and COUNT(*), under a
// HAVING or not. The same windows of 1–64 inserts, deletes, factor
// changes and key moves run through three systems: the rule set with
// AggJoinPush under the optimizer's pick, the same DAG with every node
// materialized (every partial maintained), and the rule set without
// AggJoinPush under the root alone. After every window each system
// equals the recompute oracle (Drift) on every view it holds, and the
// three roots hold the same bag.
//
// NULL factors sit only under join keys that keep a permanent non-NULL
// row in that relation: a window that deletes a SUM's last non-NULL
// argument while NULL arguments remain writes 0 where recomputation says
// NULL (DESIGN.md §7, not fixed), with or without the push.
func TestFactorizedPushDifferential(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 10
	}
	var withoutPush []dag.Rule
	for _, r := range rules.Default() {
		if r.Name() != (rules.AggJoinPush{}).Name() {
			withoutPush = append(withoutPush, r)
		}
	}
	picked := 0
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2900 + trial)))
			g := newFactGen(rng)
			_, defs := g.newDB(t)
			t.Logf("view %s", g.view(defs).Label())
			pick := g.system(t, rules.Default(), func(d *dag.DAG) tracks.ViewSet {
				opt := core.New(d, cost.PageIO{}, g.types())
				opt.Parallelism = 1
				res, err := opt.Parallel()
				if err != nil {
					t.Fatal(err)
				}
				return res.Best.Set
			})
			every := g.system(t, rules.Default(), func(d *dag.DAG) tracks.ViewSet {
				vs := tracks.RootSet(d)
				for _, e := range d.NonLeafEqs() {
					vs[e.ID] = true
				}
				return vs
			})
			oracle := g.system(t, withoutPush, tracks.RootSet)
			if every.partials() == 0 {
				t.Fatalf("the push made no partial:\n%s", every.d.Render())
			}
			if pick.partials() > 0 {
				picked++
			}
			for w := 0; w < 10; w++ {
				ops := g.window(1 + rng.Intn(64))
				for _, s := range []*factSys{pick, every, oracle} {
					if _, err := s.m.ApplyBatch(g.txns(s, ops)); err != nil {
						t.Fatalf("window %d: %v", w, err)
					}
					for _, e := range s.d.NonLeafEqs() {
						if !s.m.VS[e.ID] {
							continue
						}
						if drift, err := s.m.Drift(e); err != nil || drift != "" {
							t.Fatalf("window %d: %s drifted: %s %v\n%s", w, e, drift, err, s.d.Render())
						}
					}
				}
				want := bagOf(oracle.m.Contents(oracle.d.Root))
				for _, s := range []*factSys{pick, every} {
					if got := bagOf(s.m.Contents(s.d.Root)); got != want {
						t.Fatalf("window %d: root differs from the DAG without the push:\n got %s\nwant %s", w, got, want)
					}
				}
			}
		})
	}
	t.Logf("%d of %d trials' picks held a factorized partial", picked, trials)
	if picked == 0 {
		t.Error("no trial's pick held a factorized partial")
	}
}

// factGen draws one trial's schema, view and transaction stream. The
// model keeps every relation's current rows.
type factGen struct {
	rng      *rand.Rand
	keys     int
	keyed    [3]bool
	anchored [3]map[int64]bool // join keys with a permanent non-NULL row
	rows     [3][]value.Tuple  // current rows; anchors first
	nAnchor  [3]int
	nextID   int64
	groupBy  string
	aggs     []algebra.AggSpec
	having   bool
}

var factRels = [3]string{"A", "B", "C"}

func newFactGen(rng *rand.Rand) *factGen {
	g := &factGen{rng: rng, keys: 3 + rng.Intn(5), nextID: 1}
	for r := range factRels {
		g.keyed[r] = rng.Intn(3) == 0
		g.anchored[r] = map[int64]bool{}
		for k := int64(0); k < int64(g.keys); k++ {
			if rng.Intn(2) == 0 {
				g.anchored[r][k] = true
				g.rows[r] = append(g.rows[r], g.row(r, k, value.NewInt(1+rng.Int63n(9))))
			}
		}
		g.nAnchor[r] = len(g.rows[r])
		for i := 0; i < 2*g.keys; i++ {
			if k := rng.Int63n(int64(g.keys)); !g.keyed[r] || !g.holds(r, k) {
				g.rows[r] = append(g.rows[r], g.row(r, k, g.factor(r, k)))
			}
		}
	}
	g.groupBy = factRels[rng.Intn(3)] + ".j"
	v := func(r int) expr.Expr { return expr.C(factRels[r] + ".v") }
	times := func(a, b expr.Expr) expr.Expr { return expr.Arith{Op: expr.Times, L: a, R: b} }
	pool := []algebra.AggSpec{
		{Func: algebra.Sum, Arg: times(v(0), v(1))},
		{Func: algebra.Sum, Arg: times(v(1), v(2))},
		{Func: algebra.Sum, Arg: times(v(2), v(0))},
		{Func: algebra.Sum, Arg: times(times(v(0), v(1)), v(2))},
		{Func: algebra.Sum, Arg: v(0)},
		{Func: algebra.Sum, Arg: v(2)},
		{Func: algebra.Count},
	}
	for len(g.aggs) == 0 {
		for i, a := range pool {
			if rng.Intn(3) == 0 {
				a.As = fmt.Sprintf("a%d", i)
				g.aggs = append(g.aggs, a)
			}
		}
	}
	g.having = rng.Intn(2) == 0
	return g
}

func (g *factGen) row(r int, k int64, v value.Value) value.Tuple {
	g.nextID++
	return value.Tuple{value.NewInt(g.nextID), value.NewInt(k), v}
}

// factor draws v for a row of relation r under key k: NULL only where
// the key keeps an anchor.
func (g *factGen) factor(r int, k int64) value.Value {
	if g.anchored[r][k] && g.rng.Intn(3) == 0 {
		return value.NewNull()
	}
	return value.NewInt(g.rng.Int63n(11) - 3)
}

func (g *factGen) holds(r int, k int64) bool {
	for _, t := range g.rows[r] {
		if t[1].I == k {
			return true
		}
	}
	return false
}

func (g *factGen) def(r int) *catalog.TableDef {
	name := factRels[r]
	def := &catalog.TableDef{
		Name: name,
		Schema: catalog.NewSchema(
			catalog.Column{Qualifier: name, Name: "id", Type: value.Int},
			catalog.Column{Qualifier: name, Name: "j", Type: value.Int},
			catalog.Column{Qualifier: name, Name: "v", Type: value.Int},
		),
		Keys:    [][]string{{"id"}},
		Indexes: []catalog.IndexDef{{Name: name + "_j", Columns: []string{"j"}}},
	}
	if g.keyed[r] {
		def.Keys = append(def.Keys, []string{"j"})
	}
	return def
}

// newDB stores the initial rows under fresh definitions.
func (g *factGen) newDB(t *testing.T) (*storage.Store, [3]*catalog.TableDef) {
	st := storage.NewStore()
	var defs [3]*catalog.TableDef
	for r := range factRels {
		defs[r] = g.def(r)
		rel, err := st.Create(defs[r])
		if err != nil {
			t.Fatal(err)
		}
		rel.LoadTuples(g.rows[r])
		rel.RefreshStats()
	}
	return st, defs
}

func (g *factGen) view(defs [3]*catalog.TableDef) algebra.Node {
	ab := algebra.NewJoin([]algebra.JoinCond{{Left: "A.j", Right: "B.j"}}, algebra.Scan(defs[0]), algebra.Scan(defs[1]))
	abc := algebra.NewJoin([]algebra.JoinCond{{Left: "B.j", Right: "C.j"}}, ab, algebra.Scan(defs[2]))
	var view algebra.Node = algebra.NewAggregate([]string{g.groupBy}, g.aggs, abc)
	if g.having {
		view = algebra.NewSelect(expr.Compare(expr.GT, expr.C(g.aggs[0].As), expr.IntLit(2)), view)
	}
	return view
}

func (g *factGen) types() []*txn.Type {
	var out []*txn.Type
	for r, name := range factRels {
		out = append(out,
			&txn.Type{Name: "+" + name, Weight: 1, Updates: []txn.RelUpdate{{Rel: name, Kind: txn.Insert, Size: 1}}},
			&txn.Type{Name: "-" + name, Weight: 1, Updates: []txn.RelUpdate{{Rel: name, Kind: txn.Delete, Size: 1}}},
			&txn.Type{Name: ">" + name, Weight: float64(2 + r), Updates: []txn.RelUpdate{{Rel: name, Kind: txn.Modify, Size: 1, Cols: []string{"v"}}}},
		)
	}
	return out
}

// factSys is one maintained system over its own copy of the rows.
type factSys struct {
	d    *dag.DAG
	m    *maintain.Maintainer
	defs [3]*catalog.TableDef
}

func (g *factGen) system(t *testing.T, rs []dag.Rule, views func(*dag.DAG) tracks.ViewSet) *factSys {
	st, defs := g.newDB(t)
	d, err := dag.FromTree(g.view(defs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rs, 400); err != nil {
		t.Fatal(err)
	}
	m, err := maintain.New(d, st, cost.PageIO{}, views(d))
	if err != nil {
		t.Fatal(err)
	}
	return &factSys{d: d, m: m, defs: defs}
}

// partials counts the materialized factorized partials.
func (s *factSys) partials() int {
	n := 0
	for _, e := range s.d.NonLeafEqs() {
		if a, ok := e.Ops[0].Template.(*algebra.Aggregate); ok && s.m.VS[e.ID] && strings.Contains(a.Aggs[0].As, "@") {
			n++
		}
	}
	return n
}

// factOp is one transaction: on relation rel, old → new (either nil).
type factOp struct {
	rel      int
	old, new value.Tuple
}

// window draws n transactions against the model, applying each to it.
func (g *factGen) window(n int) []factOp {
	ops := make([]factOp, 0, n)
	for len(ops) < n {
		r := g.rng.Intn(3)
		free := len(g.rows[r]) - g.nAnchor[r] // rows a transaction may touch
		switch op := g.rng.Intn(4); {
		case op == 0 || free == 0: // insert
			k := g.rng.Int63n(int64(g.keys))
			if g.keyed[r] && g.holds(r, k) {
				continue
			}
			t := g.row(r, k, g.factor(r, k))
			g.rows[r] = append(g.rows[r], t)
			ops = append(ops, factOp{rel: r, new: t})
		case op == 1: // delete
			i := g.nAnchor[r] + g.rng.Intn(free)
			ops = append(ops, factOp{rel: r, old: g.rows[r][i]})
			g.rows[r] = append(g.rows[r][:i], g.rows[r][i+1:]...)
		default: // change the factor, or move a row with a non-NULL one to another key
			i := g.nAnchor[r] + g.rng.Intn(free)
			old := g.rows[r][i]
			t := old.Clone()
			if k := g.rng.Int63n(int64(g.keys)); op == 3 && !old[2].IsNull() && (!g.keyed[r] || !g.holds(r, k)) {
				t[1] = value.NewInt(k)
			} else {
				t[2] = g.factor(r, old[1].I)
			}
			g.rows[r][i] = t
			ops = append(ops, factOp{rel: r, old: old, new: t})
		}
	}
	return ops
}

// txns renders a window as transactions over s's relations.
func (g *factGen) txns(s *factSys, ops []factOp) []txn.Transaction {
	types := map[string]*txn.Type{}
	for _, ty := range g.types() {
		types[ty.Name] = ty
	}
	out := make([]txn.Transaction, len(ops))
	for i, op := range ops {
		name := factRels[op.rel]
		d := delta.New(s.defs[op.rel].Schema)
		ty := types[">"+name]
		switch {
		case op.old == nil:
			d.Insert(op.new, 1)
			ty = types["+"+name]
		case op.new == nil:
			d.Delete(op.old, 1)
			ty = types["-"+name]
		case !value.Equal(op.old[1], op.new[1]):
			d.Modify(op.old, op.new, 1)
			ty = &txn.Type{Name: ">" + name + ".j", Weight: 1, Updates: []txn.RelUpdate{{Rel: name, Kind: txn.Modify, Size: 1, Cols: []string{"j"}}}}
		default:
			d.Modify(op.old, op.new, 1)
		}
		out[i] = txn.Transaction{Type: ty, Updates: map[string]*delta.Delta{name: d}}
	}
	return out
}

// bagOf renders rows as an order-independent bag.
func bagOf(rows []storage.Row) string {
	var enc value.KeyEncoder
	counts := map[string]int64{}
	for _, r := range rows {
		counts[string(enc.Key(r.Tuple))] += r.Count
	}
	keys := make([]string, 0, len(counts))
	for k, n := range counts {
		if n != 0 {
			keys = append(keys, fmt.Sprintf("%x*%d", k, n))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
