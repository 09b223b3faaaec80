package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// aggState accumulates one aggregate over one group.
type aggState struct {
	sum     value.Value
	count   int64
	min     value.Value
	max     value.Value
	started bool
}

func (st *aggState) add(v value.Value, count int64) {
	if v.IsNull() {
		return
	}
	if !st.started {
		st.sum = value.NewInt(0)
		st.min = v
		st.max = v
		st.started = true
	}
	if v.Kind == value.Int && st.sum.Kind == value.Int {
		st.sum.I += count * v.I // exact, so count additions are one
	} else {
		// Floats round per addition: add one copy at a time, as the
		// incremental fold does, so the two stay bit-equal.
		for i := int64(0); i < count; i++ {
			st.sum = value.Add(st.sum, v)
		}
	}
	st.count += count
	if value.Compare(v, st.min) < 0 {
		st.min = v
	}
	if value.Compare(v, st.max) > 0 {
		st.max = v
	}
}

func (st *aggState) final(f algebra.AggFunc) value.Value {
	switch f {
	case algebra.Count:
		return value.NewInt(st.count)
	case algebra.Sum:
		if !st.started {
			return value.NewNull()
		}
		return st.sum
	case algebra.Avg:
		if st.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(st.sum.AsFloat() / float64(st.count))
	case algebra.Min:
		if !st.started {
			return value.NewNull()
		}
		return st.min
	case algebra.Max:
		if !st.started {
			return value.NewNull()
		}
		return st.max
	default:
		return value.NewNull()
	}
}

func aggregateResult(in *Result, a *algebra.Aggregate) (*Result, error) {
	gpos := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		j, err := in.Schema.Resolve(g)
		if err != nil {
			return nil, err
		}
		gpos[i] = j
	}
	args := make([]*expr.Prog, len(a.Aggs))
	for i, ag := range a.Aggs {
		if ag.Arg == nil {
			if ag.Func != algebra.Count {
				return nil, fmt.Errorf("exec: %s requires an argument", ag.Func)
			}
			continue
		}
		f, err := expr.CompileProg(ag.Arg, in.Schema)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	type group struct {
		key    value.Tuple
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	var enc value.KeyEncoder
	for _, row := range in.Rows {
		kb := enc.ProjectedKey(row.Tuple, gpos)
		g, ok := groups[string(kb)]
		if !ok {
			k := string(kb)
			g = &group{key: row.Tuple.Project(gpos), states: make([]aggState, len(a.Aggs))}
			groups[k] = g
			order = append(order, k)
		}
		for i, ag := range a.Aggs {
			if ag.Arg == nil { // COUNT(*)
				g.states[i].count += row.Count
				g.states[i].started = true
				continue
			}
			g.states[i].add(args[i].Eval(row.Tuple), row.Count)
		}
	}
	out := &Result{Schema: a.Schema()}
	for _, k := range order {
		g := groups[k]
		t := make(value.Tuple, 0, len(gpos)+len(a.Aggs))
		t = append(t, g.key...)
		for i, ag := range a.Aggs {
			t = append(t, g.states[i].final(ag.Func))
		}
		out.Rows = append(out.Rows, storage.Row{Tuple: t, Count: 1})
	}
	return out, nil
}
