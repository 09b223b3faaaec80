package paper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/rules"
	"repro/internal/txn"
	"repro/internal/value"
)

// SweepFanoutRow is one point of the employees-per-department ablation.
type SweepFanoutRow struct {
	EmpsPerDept              int
	CostEmpty, CostN3        float64
	Ratio                    float64
	OptimalIncludesSumOfSals bool
}

// SweepFanout varies the employees-per-department fan-out d and reports
// where the {N3} strategy's advantage goes as groups shrink: the paper's
// gain comes from replacing a d-tuple group read with a single-tuple
// lookup, so the ratio approaches 1 as d → 1.
func SweepFanout(departments int, fanouts []int) ([]SweepFanoutRow, string, error) {
	var rows []SweepFanoutRow
	for _, d := range fanouts {
		f, err := NewFixture(corpus.Config{Departments: departments, EmpsPerDept: d})
		if err != nil {
			return nil, "", err
		}
		we, _ := f.Cost.WeightedCost(f.Empty, f.Types)
		w3, _ := f.Cost.WeightedCost(f.SetN3, f.Types)
		res, err := f.Optimum()
		if err != nil {
			return nil, "", err
		}
		includes := res.Best.Set[f.N3.ID]
		rows = append(rows, SweepFanoutRow{
			EmpsPerDept: d, CostEmpty: we, CostN3: w3,
			Ratio: w3 / we, OptimalIncludesSumOfSals: includes,
		})
	}
	var b strings.Builder
	b.WriteString("Ablation A1: employees-per-department sweep (weighted page I/Os per txn)\n")
	fmt.Fprintf(&b, "%8s %10s %10s %8s %s\n", "emps/dep", "{} cost", "{N3} cost", "ratio", "optimal includes N3")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10.4g %10.4g %8.3f %v\n",
			r.EmpsPerDept, r.CostEmpty, r.CostN3, r.Ratio, r.OptimalIncludesSumOfSals)
	}
	return rows, b.String(), nil
}

// SweepWeightsRow is one point of the transaction-weight ablation.
type SweepWeightsRow struct {
	EmpWeight float64
	Chosen    string
	Cost      float64
}

// SweepWeights varies the relative frequency of >Emp vs >Dept and reports
// the chosen view set (the paper observes {N3} wins independent of
// weights on its example).
func SweepWeights(cfg corpus.Config, empWeights []float64) ([]SweepWeightsRow, string, error) {
	var rows []SweepWeightsRow
	for _, w := range empWeights {
		f, err := NewFixture(cfg)
		if err != nil {
			return nil, "", err
		}
		types := []*txn.Type{
			{Name: ">Emp", Weight: w, Updates: f.Types[0].Updates},
			{Name: ">Dept", Weight: 1, Updates: f.Types[1].Updates},
		}
		opt := core.New(f.D, cost.PageIO{}, types)
		res, err := opt.Exhaustive()
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, SweepWeightsRow{
			EmpWeight: w, Chosen: res.Best.Set.Key(), Cost: res.Best.Weighted,
		})
	}
	var b strings.Builder
	b.WriteString("Ablation A2: transaction-weight sweep (f_Emp : f_Dept = w : 1)\n")
	fmt.Fprintf(&b, "%8s %-14s %10s\n", "w", "chosen set", "cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.4g %-14s %10.4g\n", r.EmpWeight, r.Chosen, r.Cost)
	}
	return rows, b.String(), nil
}

// SweepOptimizersRow is one point of the optimizer-scaling ablation.
type SweepOptimizersRow struct {
	Chain      int
	Candidates int
	Method     string
	Explored   int
	Best       float64
	Elapsed    time.Duration
}

// chainSchema builds a k-relation join chain R0 ⋈ R1 ⋈ ... ⋈ R(k-1) on
// shared keys, a workload updating each relation, and the expanded DAG —
// the growing search space for the optimizer-scaling ablation.
func chainSchema(k, rowsPer int) (*dag.DAG, []*txn.Type, error) {
	cat := catalog.New()
	st := corpusStoreForChain(cat, k, rowsPer)
	var tree algebra.Node
	for i := 0; i < k; i++ {
		def, _ := cat.Get(fmt.Sprintf("R%d", i))
		scan := algebra.Scan(def)
		if tree == nil {
			tree = scan
			continue
		}
		tree = algebra.NewJoin([]algebra.JoinCond{{
			Left:  fmt.Sprintf("R%d.K%d", i-1, i),
			Right: fmt.Sprintf("R%d.K%d", i, i),
		}}, tree, scan)
	}
	view := algebra.NewSelect(
		expr.Compare(expr.GT, expr.C("R0.V0"), expr.IntLit(-1)), tree)
	d, err := dag.FromTree(view)
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.Expand(rules.Default(), 2000); err != nil {
		return nil, nil, err
	}
	var types []*txn.Type
	for i := 0; i < k; i++ {
		types = append(types, &txn.Type{
			Name: fmt.Sprintf(">R%d", i), Weight: 1,
			Updates: []txn.RelUpdate{{
				Rel: fmt.Sprintf("R%d", i), Kind: txn.Modify, Size: 1,
				Cols: []string{fmt.Sprintf("V%d", i)},
			}},
		})
	}
	_ = st
	return d, types, nil
}

// corpusStoreForChain registers the chain relations with statistics (the
// sweep only costs plans; data is not materialized).
func corpusStoreForChain(cat *catalog.Catalog, k, rowsPer int) struct{} {
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("R%d", i)
		cols := []catalog.Column{
			{Qualifier: name, Name: fmt.Sprintf("K%d", i), Type: value.Int},
			{Qualifier: name, Name: fmt.Sprintf("K%d", i+1), Type: value.Int},
			{Qualifier: name, Name: fmt.Sprintf("V%d", i), Type: value.Int},
		}
		def := &catalog.TableDef{
			Name:   name,
			Schema: catalog.NewSchema(cols...),
			Keys:   [][]string{{fmt.Sprintf("K%d", i)}},
			Indexes: []catalog.IndexDef{
				{Name: name + "_k", Columns: []string{fmt.Sprintf("K%d", i)}},
				{Name: name + "_k2", Columns: []string{fmt.Sprintf("K%d", i+1)}},
			},
			// Asymmetric cardinalities make plan quality differ across
			// methods (symmetric chains tie everywhere).
			Stats: catalog.Stats{
				Card: float64(rowsPer * (1 + i*3)),
				Distinct: map[string]float64{
					fmt.Sprintf("K%d", i):   float64(rowsPer * (1 + i*3)),
					fmt.Sprintf("K%d", i+1): float64(rowsPer) / 4,
					fmt.Sprintf("V%d", i):   float64(rowsPer) / 2,
				},
			},
		}
		if err := cat.Add(def); err != nil {
			panic(err)
		}
	}
	return struct{}{}
}

// SweepOptimizers compares exhaustive, shielded, greedy and single-tree
// search on growing join chains: view sets costed, wall time, and
// solution quality.
func SweepOptimizers(chains []int) ([]SweepOptimizersRow, string, error) {
	var rows []SweepOptimizersRow
	for _, k := range chains {
		d, types, err := chainSchema(k, 1000)
		if err != nil {
			return nil, "", err
		}
		opt := core.New(d, cost.PageIO{}, types)
		cands := len(d.NonLeafEqs()) - 1
		run := func(name string, f func() (*core.Result, error)) error {
			start := time.Now()
			res, err := f()
			if err != nil {
				return err
			}
			rows = append(rows, SweepOptimizersRow{
				Chain: k, Candidates: cands, Method: name,
				Explored: res.Explored, Best: res.Best.Weighted,
				Elapsed: time.Since(start),
			})
			return nil
		}
		// Exhaustive enumeration is the very thing Sections 4–5 exist to
		// avoid; cap it so the sweep itself stays tractable.
		if cands <= 8 {
			if err := run("exhaustive", opt.Exhaustive); err != nil {
				return nil, "", err
			}
		}
		if err := run("shielded", opt.Shielded); err != nil {
			return nil, "", err
		}
		if err := run("greedy", func() (*core.Result, error) { return opt.Greedy(), nil }); err != nil {
			return nil, "", err
		}
		if err := run("single-tree", opt.SingleTree); err != nil {
			return nil, "", err
		}
		if err := run("heuristic-marking", func() (*core.Result, error) { return opt.HeuristicMarking(), nil }); err != nil {
			return nil, "", err
		}
	}
	var b strings.Builder
	b.WriteString("Ablation A3: optimizer scaling on join chains\n")
	fmt.Fprintf(&b, "%6s %6s %-18s %9s %10s %12s\n",
		"chain", "cands", "method", "explored", "best", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %-18s %9d %10.4g %12s\n",
			r.Chain, r.Candidates, r.Method, r.Explored, r.Best, r.Elapsed.Round(time.Microsecond))
	}
	return rows, b.String(), nil
}
