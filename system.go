package mvmaint

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/ic"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// Method selects the view-set optimization strategy of Config.
type Method int

// Optimization methods.
const (
	// Exhaustive is Algorithm OptimalViewSet (Figure 4), searched exactly
	// by branch-and-bound: the optimum of the full
	// enumeration, from only the view sets a lower bound cannot exclude.
	Exhaustive Method = iota
	// Shielded applies the Shielding Principle at articulation nodes
	// (Theorem 4.1) before searching.
	Shielded
	// Greedy hill-climbs one view at a time (Section 5, approximate
	// costing).
	Greedy
	// SingleTree restricts the search to the query-optimal expression
	// tree (Section 5).
	SingleTree
	// HeuristicMarking marks parents of joins/aggregations on the
	// query-optimal tree (Section 5).
	HeuristicMarking
	// NoAdditional materializes only the top-level views (the baseline).
	NoAdditional
)

// String returns the method name used in reports and CLI flags.
func (m Method) String() string {
	switch m {
	case Exhaustive:
		return "exhaustive"
	case Shielded:
		return "shielded"
	case Greedy:
		return "greedy"
	case SingleTree:
		return "single-tree"
	case HeuristicMarking:
		return "heuristic-marking"
	case NoAdditional:
		return "no-additional"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config controls Build. Every build grows the DAG with rules.Default()
// up to 512 operation nodes and costs view sets with the paper's page-I/O
// model; the assertion checker rejects violating transactions iff an
// assertion is among the built names.
type Config struct {
	// Workload is the set of weighted transaction types the view set is
	// optimized for. Required.
	Workload []*txn.Type
	// Method picks the optimizer (default Exhaustive).
	Method Method
}

// maxOps caps DAG expansion at every build.
const maxOps = 512

// System is a maintained configuration: an expression DAG over the chosen
// views/assertions, the optimizer's decision, a live maintenance engine
// and an assertion checker.
type System struct {
	DB       *DB
	DAG      *dag.DAG
	Decision *core.Result
	ViewSet  tracks.ViewSet
	M        *maintain.Maintainer
	Checker  *ic.Checker

	names map[int]string // root eq ID -> declared name
}

// Build grows the DAG for the named views/assertions, optimizes the view
// set for the workload and materializes it. Names must have been declared
// via CREATE VIEW / CREATE ASSERTION on the DB.
func (db *DB) Build(names []string, cfg Config) (*System, error) {
	return db.build(names, cfg, nil)
}

// build is Build with the views seeded from checkpointed state instead
// of recomputed when restore is set (crash recovery).
func (db *DB) build(names []string, cfg Config, restore *maintain.RestoreOptions) (*System, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("mvmaint: Build requires at least one view or assertion")
	}
	d, trees, err := expand(db, names)
	if err != nil {
		return nil, err
	}
	res, err := optimize(d, cfg)
	if err != nil {
		return nil, err
	}
	m, err := materialize(db, d, res.Best.Set, restore)
	if err != nil {
		return nil, err
	}
	rootNames, assertions, err := db.roots(d, names, trees)
	if err != nil {
		return nil, err
	}
	checker, err := newChecker(m, assertions)
	if err != nil {
		return nil, err
	}
	return &System{DB: db, DAG: d, Decision: res, ViewSet: res.Best.Set, M: m,
		Checker: checker, names: rootNames}, nil
}

// expand resolves names to their declared trees and grows one DAG over
// them with the default rules; it then refreshes db's statistics, which
// the optimizer reads next.
func expand(db *DB, names []string) (*dag.DAG, []algebra.Node, error) {
	trees := make([]algebra.Node, len(names))
	for i, n := range names {
		tree, ok := db.View(n)
		if !ok {
			return nil, nil, fmt.Errorf("mvmaint: unknown view or assertion %q", n)
		}
		trees[i] = tree
	}
	d, err := dag.FromTrees(trees...)
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.Expand(rules.Default(), maxOps); err != nil {
		return nil, nil, err
	}
	db.RefreshStats()
	return d, trees, nil
}

// optimize runs cfg's view-set optimizer over d under the page-I/O
// model; the one path behind Build and Reoptimize.
func optimize(d *dag.DAG, cfg Config) (*core.Result, error) {
	if len(cfg.Workload) == 0 {
		return nil, fmt.Errorf("mvmaint: a workload is required")
	}
	opt := core.New(d, cost.PageIO{}, cfg.Workload)
	switch cfg.Method {
	case Exhaustive:
		// The exact search as branch-and-bound: the same optimum as
		// enumerating the lattice (core.Exhaustive, which the paper's
		// tables and the equivalence tests keep), costing only the sets
		// no lower bound excludes.
		return opt.BranchAndBound()
	case Shielded:
		return opt.Shielded()
	case Greedy:
		return opt.Greedy(), nil
	case SingleTree:
		return opt.SingleTree()
	case HeuristicMarking:
		return opt.HeuristicMarking(), nil
	case NoAdditional:
		ev := opt.Evaluate()
		return &core.Result{Method: "no-additional", Best: ev, All: []core.Evaluated{ev}, Explored: 1}, nil
	default:
		return nil, fmt.Errorf("mvmaint: unknown method %v", cfg.Method)
	}
}

// materialize stores the view set over db's relations, each view
// through its cheapest plan given the views stored before it, or seeded
// from checkpointed state when restore is set.
func materialize(db *DB, d *dag.DAG, vs tracks.ViewSet, restore *maintain.RestoreOptions) (*maintain.Maintainer, error) {
	if restore != nil {
		return maintain.NewRestored(d, db.Store, cost.PageIO{}, vs, *restore)
	}
	return maintain.New(d, db.Store, cost.PageIO{}, vs)
}

// roots maps the root of each declared name's tree in d to the name, and
// lists the names that are assertions with their roots.
func (db *DB) roots(d *dag.DAG, names []string, trees []algebra.Node) (map[int]string, []ic.Assertion, error) {
	byRoot := map[int]string{}
	var assertions []ic.Assertion
	for i, n := range names {
		eq := d.FindEq(trees[i])
		if eq == nil {
			return nil, nil, fmt.Errorf("mvmaint: lost root for %q", n)
		}
		byRoot[eq.ID] = n
		if db.IsAssertion(n) {
			assertions = append(assertions, ic.Assertion{Name: n, View: eq})
		}
	}
	return byRoot, assertions, nil
}

// newChecker checks the assertions over m's views, rejecting violating
// transactions iff there is an assertion to check.
func newChecker(m *maintain.Maintainer, assertions []ic.Assertion) (*ic.Checker, error) {
	mode := ic.Report
	if len(assertions) > 0 {
		mode = ic.Reject
	}
	return ic.New(m, mode, assertions...)
}

// Execute runs one DML statement under maintenance and assertion
// checking, as a one-transaction maintenance window: a rejected one is
// decided after propagation and never applied, logged or published.
func (s *System) Execute(sql string) (*ic.Outcome, error) {
	ty, updates, err := s.DB.TxnFromSQL(sql)
	if err != nil {
		return nil, err
	}
	return s.Checker.Execute(ty, updates)
}

// ExecuteTxn runs a pre-built transaction under maintenance and checking.
func (s *System) ExecuteTxn(t *txn.Type, updates map[string]*delta.Delta) (*ic.Outcome, error) {
	return s.Checker.Execute(t, updates)
}

// ViewRows returns the maintained contents of a declared view.
func (s *System) ViewRows(name string) ([]storage.Row, error) {
	for id, n := range s.names {
		if n != name {
			continue
		}
		for _, e := range s.DAG.Roots {
			if e.ID == id {
				return s.M.Contents(e), nil
			}
		}
	}
	return nil, fmt.Errorf("mvmaint: %q is not a maintained view", name)
}

// AdditionalViews describes the extra views the optimizer materialized,
// one canonical expression label per view.
func (s *System) AdditionalViews() []string {
	var out []string
	for _, e := range s.Decision.AdditionalViews(s.DAG) {
		out = append(out, fmt.Sprintf("%s = %s", e, s.DAG.RepTree(e).Label()))
	}
	return out
}

// Explain renders the optimizer's decision beside what the engine has
// measured since: the DAG, the chosen view set with, per declared
// transaction type, the estimated query and update cost of its track
// (each charged query with the fan-out it was priced at) and the
// runner-up set's cost; the ranking with each set's margin over the
// chosen one; and, once windows have run, the measured page I/O per
// transaction of each type, split as BatchReport splits it. Runner-up
// and ranking are over the sets the search costed (Decision.All), which
// after a branch-and-bound search leave out the sets its bound excluded.
func (s *System) Explain() string {
	var b strings.Builder
	best := s.Decision.Best
	fmt.Fprintf(&b, "method: %s (%d view sets costed", s.Decision.Method, s.Decision.Explored)
	if s.Decision.Pruned > 0 {
		fmt.Fprintf(&b, ", %d excluded by the bound", s.Decision.Pruned)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "expression DAG:\n%s", indent(s.DAG.Render(), "  "))
	fmt.Fprintf(&b, "chosen view set: %s (weighted cost %.4g)\n", best.Set.Key(), best.Weighted)
	for _, v := range s.AdditionalViews() {
		fmt.Fprintf(&b, "  additional: %s\n", v)
	}
	var runnerUp *core.Evaluated
	for i := range s.Decision.All {
		if ev := &s.Decision.All[i]; ev.Set.Key() != best.Set.Key() {
			runnerUp = ev
			break
		}
	}
	txns := make([]string, 0, len(best.PerTxn))
	for name := range best.PerTxn {
		txns = append(txns, name)
	}
	sort.Strings(txns)
	for _, name := range txns {
		tc := best.PerTxn[name]
		fmt.Fprintf(&b, "  %s: query %.4g + update %.4g = %.4g", name, tc.QueryCost, tc.UpdateCost, tc.Total())
		if runnerUp != nil {
			fmt.Fprintf(&b, "  (runner-up %s: %.4g)", runnerUp.Set.Key(), runnerUp.PerTxn[name].Total())
		}
		b.WriteString("\n" + indent(tracks.FormatQueries(tc.Queries), "  "))
		if tc.Track == nil { // the type touches nothing the views read
			continue
		}
		for _, e := range tc.Track.Order {
			if into := s.M.StreamsInto(tc.Track, e); into != nil {
				explainStream(&b, tc.Track, e, into)
			}
		}
	}
	top := s.Decision.All
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Fprintf(&b, "ranking (best %d of the sets costed):\n", len(top))
	for i, ev := range top {
		fmt.Fprintf(&b, "  %d. %s = %.4g", i+1, ev.Set.Key(), ev.Weighted)
		if best.Weighted > 0 {
			fmt.Fprintf(&b, " (%+.1f%%)", 100*(ev.Weighted-best.Weighted)/best.Weighted)
		}
		b.WriteString("\n")
	}
	if measured := s.M.MeasuredIO(); len(measured) > 0 {
		b.WriteString("measured page I/O per transaction (a window of several splits evenly; estimates count query + view):\n")
		for _, io := range measured {
			n := float64(io.Txns)
			fmt.Fprintf(&b, "  %s: query %.4g + view %.4g + root %.4g + base %.4g = %.4g over %d txns",
				io.Name, io.Query/n, io.View/n, io.Root/n, io.Base/n, io.Total()/n, io.Txns)
			if tc, ok := best.PerTxn[io.Name]; ok {
				fmt.Fprintf(&b, "  (query + view %.4g, estimated %.4g)", (io.Query+io.View)/n, tc.Total())
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// explainStream writes the line for a join e that streams into the
// aggregate node into, naming each side the track changes whose rows
// fold by side (delta.Factor, the decision the plan makes).
func explainStream(b *strings.Builder, tr *tracks.Track, e, into *dag.EqNode) {
	join, agg := tr.Choice[e.ID], tr.Choice[into.ID]
	fmt.Fprintf(b, "    %s streams into %s: E%d folds its rows as they are derived, no delta is held", e, into, agg.ID)
	for side, ch := range join.Children {
		if tr.Choice[ch.ID] == nil && !slices.Contains(tr.Leaves, ch) {
			continue // unchanged on this track
		}
		fc := delta.Factor(join.Template.(*algebra.Join), agg.Template.(*algebra.Aggregate),
			join.Children[0].Schema(), join.Children[1].Schema(), side)
		if fc == nil {
			continue
		}
		name := ch.String()
		if ch.IsLeaf() {
			name = ch.BaseRel
		}
		fmt.Fprintf(b, "; a Δ%s row folds %s", name, fc)
	}
	b.WriteString("\n")
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// IO returns the store's cumulative I/O counter.
func (s *System) IO() *storage.IOCounter { return s.DB.Store.IO }

// Reoptimize refreshes base-relation statistics, re-runs the view-set
// optimizer and — if a different view set wins — re-materializes it,
// dropping the backing stores of views no longer chosen. The paper notes
// optimization "does not have to be performed very often"; this is the
// hook for when data drift makes it worthwhile. It reports whether the
// view set changed.
func (s *System) Reoptimize(cfg Config) (changed bool, err error) {
	s.DB.RefreshStats()
	res, err := optimize(s.DAG, cfg)
	if err != nil {
		return false, err
	}
	if res.Best.Set.Key() == s.ViewSet.Key() {
		s.Decision = res
		return false, nil
	}
	// Drop the old views' backing stores and materialize the new set.
	for _, e := range s.DAG.NonLeafEqs() {
		if s.ViewSet[e.ID] {
			s.DB.Store.Drop(maintain.ViewName(e))
		}
	}
	m, err := materialize(s.DB, s.DAG, res.Best.Set, nil)
	if err != nil {
		return false, err
	}
	checker, err := newChecker(m, s.Checker.Assertions)
	if err != nil {
		return false, err
	}
	s.Decision = res
	s.ViewSet = res.Best.Set
	s.M = m
	s.Checker = checker
	return true, nil
}
