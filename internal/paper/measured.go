package paper

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/tracks"
	"repro/internal/txn"
)

// MeasuredRow pairs an estimated cost with the page I/O actually counted
// by the storage engine while the maintenance runtime executed the same
// transaction.
type MeasuredRow struct {
	Set       string
	Txn       string
	Estimated float64
	Measured  int64
}

// MeasuredParity re-runs the §3.6 scenario on the live engine: for each
// view set and transaction type it executes a real transaction — as a
// one-transaction ApplyBatch window, the engine's only maintenance body
// — and counts actual page I/Os, then reports them beside the cost
// model's estimates. On the paper's instance the two agree exactly.
func MeasuredParity(cfg corpus.Config) ([]MeasuredRow, string, error) {
	var rows []MeasuredRow
	strategies := []struct {
		name  string
		extra func(*Fixture) []*dag.EqNode
	}{
		{"{}", func(f *Fixture) []*dag.EqNode { return nil }},
		{"{N3}", func(f *Fixture) []*dag.EqNode { return []*dag.EqNode{f.N3} }},
		{"{N4}", func(f *Fixture) []*dag.EqNode { return []*dag.EqNode{f.N4} }},
	}
	for _, strat := range strategies {
		// Fresh database per strategy so transactions see identical
		// states.
		f, err := NewFixture(cfg)
		if err != nil {
			return nil, "", err
		}
		vs := tracks.RootSet(f.D)
		for _, e := range strat.extra(f) {
			vs[e.ID] = true
		}
		m, err := maintain.New(f.D, f.DB.Store, cost.PageIO{}, vs)
		if err != nil {
			return nil, "", err
		}
		for _, ty := range f.Types {
			est, _ := f.Cost.CostViewSet(vs, ty)
			var updates map[string]*delta.Delta
			switch ty.Name {
			case ">Emp":
				d, err := f.DB.EmpSalaryDelta(1, 1, 333)
				if err != nil {
					return nil, "", err
				}
				updates = map[string]*delta.Delta{"Emp": d}
			case ">Dept":
				d, err := f.DB.DeptBudgetDelta(2, 98765)
				if err != nil {
					return nil, "", err
				}
				updates = map[string]*delta.Delta{"Dept": d}
			}
			rep, err := m.ApplyBatch([]txn.Transaction{{Type: ty, Updates: updates}})
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, MeasuredRow{
				Set: strat.name, Txn: ty.Name,
				Estimated: est.Total(), Measured: rep.PaperTotal(),
			})
		}
	}
	var b strings.Builder
	b.WriteString("Measured parity (estimated vs engine-counted page I/Os):\n")
	fmt.Fprintf(&b, "%-6s %-6s %10s %10s %s\n", "set", "txn", "estimated", "measured", "match")
	for _, r := range rows {
		match := "OK"
		if float64(r.Measured) != r.Estimated {
			match = "MISMATCH"
		}
		fmt.Fprintf(&b, "%-6s %-6s %10.4g %10d %s\n", r.Set, r.Txn, r.Estimated, r.Measured, match)
	}
	return rows, b.String(), nil
}

// MeasuredWorkload runs n alternating >Emp/>Dept transactions under a
// strategy and returns the total paper-metric page I/Os (used by the
// throughput benchmarks).
func MeasuredWorkload(cfg corpus.Config, withN3 bool, n int) (int64, error) {
	f, err := NewFixture(cfg)
	if err != nil {
		return 0, err
	}
	vs := tracks.RootSet(f.D)
	if withN3 {
		vs[f.N3.ID] = true
	}
	m, err := maintain.New(f.D, f.DB.Store, cost.PageIO{}, vs)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := 0; i < n; i++ {
		var ty *txn.Type
		var updates map[string]*delta.Delta
		if i%2 == 0 {
			d, err := f.DB.EmpSalaryDelta(i%cfg.Departments, i%cfg.EmpsPerDept, int64(100+i))
			if err != nil {
				return 0, err
			}
			ty, updates = f.Types[0], map[string]*delta.Delta{"Emp": d}
		} else {
			d, err := f.DB.DeptBudgetDelta(i%cfg.Departments, int64(5000+i))
			if err != nil {
				return 0, err
			}
			ty, updates = f.Types[1], map[string]*delta.Delta{"Dept": d}
		}
		rep, err := m.Apply(ty, updates)
		if err != nil {
			return 0, err
		}
		total += rep.PaperTotal()
	}
	return total, nil
}
