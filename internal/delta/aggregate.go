package delta

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/value"
)

// OldAgg reports the pre-update state of one group of a materialized
// aggregate view: the stored output tuple, the group's live bag count in
// the child, and whether the group existed.
type OldAgg func(groupKey value.Tuple) (out value.Tuple, live int64, ok bool, err error)

// Linear reports whether every aggregate is SUM or COUNT: linear in
// signed multiplicities, so a fold over un-netted rows is exact — a +t
// and its −t cancel in the sums as they would have in the delta.
func Linear(specs []algebra.AggSpec) bool {
	for _, s := range specs {
		if s.Func != algebra.Sum && s.Func != algebra.Count {
			return false
		}
	}
	return true
}

// Decomposable reports whether the aggregate view can be maintained
// purely from its own stored values plus the child delta, with no query
// on the child: true when every aggregate is SUM or COUNT, or when the
// delta is insert-only and every aggregate is SUM/COUNT/MIN/MAX.
// (AVG and deletion-exposed MIN/MAX need the full group.) Insert-only
// is asked of a net delta: a +t/−t pair that cancels would deny it.
func Decomposable(specs []algebra.AggSpec, d *Delta) bool {
	insertOnly := true
	for _, c := range d.Changes {
		if !c.IsInsert() {
			insertOnly = false
			break
		}
	}
	for _, s := range specs {
		switch s.Func {
		case algebra.Sum, algebra.Count:
		case algebra.Min, algebra.Max:
			if !insertOnly {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// GroupLive is an affected group's key and post-update bag cardinality,
// which the caller persists beside the view to detect group emptiness.
type GroupLive struct {
	Key  value.Tuple
	Live int64
}

// acc is one group's running aggregate state: the bag cardinality and,
// per aggregate, the sum, count and extremes of its non-NULL arguments.
// Incremental folds a delta's signed rows into one acc per affected
// group (live is then the signed change in cardinality, and the extremes
// cover inserted rows only); Full lists each group's delta rows instead
// and folds whole bags into the plan's state. Entries live in the plan's
// reusable scratch; their inner slices are retained (truncated, not
// freed) across windows.
type acc struct {
	key    value.Tuple
	sums   []value.Value // per agg: signed sum of non-NULL arguments (SUM, AVG)
	counts []int64       // per agg: signed count of non-NULL arguments (all rows for COUNT(*))
	mins   []value.Value // per agg: least and greatest non-NULL argument
	maxs   []value.Value // among rows folded with a positive count
	live   int64         // signed bag cardinality
	rows   []int32       // the group's rows in the plan's sbuf (Full only)
}

// reset empties g for a group with the given key and n aggregates.
func (g *acc) reset(key value.Tuple, n int) {
	g.key = key
	g.live = 0
	g.rows = g.rows[:0]
	if cap(g.sums) < n {
		g.sums = make([]value.Value, n)
		g.counts = make([]int64, n)
		g.mins = make([]value.Value, n)
		g.maxs = make([]value.Value, n)
	} else {
		g.sums = g.sums[:n]
		g.counts = g.counts[:n]
		g.mins = g.mins[:n]
		g.maxs = g.maxs[:n]
	}
	for i := 0; i < n; i++ {
		g.sums[i] = value.NewInt(0)
		g.counts[i] = 0
		g.mins[i] = value.NewNull()
		g.maxs[i] = value.NewNull()
	}
}

// getAcc returns the accumulator for t's group.
func (p *AggregatePlan) getAcc(t value.Tuple) *acc {
	for i, j := range p.gpos {
		p.gk[i] = t[j]
	}
	return &p.accs[p.group()]
}

// group returns the index in p.accs of the group keyed p.gk, creating (or
// reusing a retained) accumulator on first touch. Group keys are
// bump-allocated from the plan's arena; append order of p.accs is
// first-seen group order. Keys compare by their encoding (value.Same), as
// the table and a recomputation key groups, so +0.0 and −0.0 are two
// groups. Rows arrive in runs of one group (a join emits all of a key's
// matches together), so the previous lookup's group is tried before the
// table. Hold the index, not a pointer: the next lookup may grow p.accs.
func (p *AggregatePlan) group() int {
	if p.last < len(p.accs) {
		g, i := &p.accs[p.last], 0
		for i < len(p.gk) && value.Same(g.key[i], p.gk[i]) {
			i++
		}
		if i == len(p.gk) {
			return p.last
		}
	}
	idx, _, existed := p.groups.GetOrPut(p.enc.Key(p.gk), int32(len(p.accs)))
	p.last = int(*idx)
	if existed {
		return p.last
	}
	if len(p.accs) < cap(p.accs) {
		p.accs = p.accs[:len(p.accs)+1]
	} else {
		p.accs = append(p.accs, acc{})
	}
	k := p.arena.NewTuple(len(p.gk))
	copy(k, p.gk)
	p.accs[p.last].reset(k, len(p.a.Aggs))
	return p.last
}

// fold adds n copies of t (n signed) to g.
func (p *AggregatePlan) fold(g *acc, t value.Tuple, n int64) {
	g.live += n
	for i, ag := range p.a.Aggs {
		if ag.Arg == nil { // COUNT(*)
			g.counts[i] += n
			continue
		}
		v := p.argFns[i](t)
		if v.IsNull() {
			continue
		}
		g.counts[i] += n
		switch ag.Func {
		case algebra.Sum, algebra.Avg:
			if v.Kind == value.Int && g.sums[i].Kind == value.Int {
				g.sums[i].I += n * v.I // exact, so |n| additions are one
				continue
			}
			// Floats round per addition: add one copy at a time, as a
			// recomputation over the same rows does.
			for j := n; j > 0; j-- {
				g.sums[i] = value.Add(g.sums[i], v)
			}
			for j := n; j < 0; j++ {
				g.sums[i] = value.Sub(g.sums[i], v)
			}
		case algebra.Min:
			if n > 0 && (g.mins[i].IsNull() || value.Compare(v, g.mins[i]) < 0) {
				g.mins[i] = v
			}
		case algebra.Max:
			if n > 0 && (g.maxs[i].IsNull() || value.Compare(v, g.maxs[i]) > 0) {
				g.maxs[i] = v
			}
		}
	}
}

// StartFold empties the group accumulators for a new delta.
func (p *AggregatePlan) StartFold() {
	p.groups.Reset()
	p.accs = p.accs[:0]
	p.last = 0
}

// bucket groups d's signed rows by group key in one pass (p.accs,
// first-seen group order). With fold set each row is folded into its
// group's accumulator; otherwise the accumulator lists the row's position
// in p.sbuf.
func (p *AggregatePlan) bucket(d *Delta, fold bool) {
	p.StartFold()
	p.sbuf = d.appendSigned(p.sbuf[:0])
	for i := range p.sbuf {
		sr := &p.sbuf[i]
		g := p.getAcc(sr.tuple)
		if fold {
			p.fold(g, sr.tuple, sr.count)
		} else {
			g.rows = append(g.rows, int32(i))
		}
	}
}

// Incremental maintains the aggregate from the materialized old values
// alone (the paper's SumOfSals trick: "adding to or subtracting from the
// previous aggregate values"), folding d's signed rows into per-group
// accumulators that live in plan scratch reused across windows. It
// requires Decomposable for this delta, and returns the output delta and
// the new live count of every affected group.
func (p *AggregatePlan) Incremental(d *Delta, oldAgg OldAgg) (*Delta, []GroupLive, error) {
	if !Decomposable(p.a.Aggs, d) {
		return nil, nil, fmt.Errorf("delta: aggregate %s is not decomposable for this delta", p.a.OpLabel())
	}
	p.bucket(d, true)
	return p.FinishFold(oldAgg)
}

// FinishFold turns the fold since StartFold — Incremental's, or the one
// JoinPlan.ApplyInto streamed — into the view's delta, from the stored
// old values alone. The output delta and live counts are plan scratch,
// valid until the next fold or Full on this plan (or arena reset).
func (p *AggregatePlan) FinishFold(oldAgg OldAgg) (*Delta, []GroupLive, error) {
	a, gpos := p.a, p.gpos
	out := resetOut(&p.outD, p.out)
	p.lives = p.lives[:0]
	nAggStart := len(gpos)
	for gi := range p.accs {
		g := &p.accs[gi]
		oldTuple, oldLive, existed, err := oldAgg(g.key)
		if err != nil {
			return nil, nil, err
		}
		if !existed {
			oldLive = 0
		}
		live := oldLive + g.live
		if live < 0 {
			return nil, nil, fmt.Errorf("delta: group %v driven to negative live count %d", g.key, live)
		}
		p.lives = append(p.lives, GroupLive{g.key, live})
		// Build the new output tuple from old + contributions.
		newTuple := p.arena.NewTuple(nAggStart + len(a.Aggs))
		copy(newTuple, g.key)
		for i, ag := range a.Aggs {
			var oldV value.Value
			if existed {
				oldV = oldTuple[nAggStart+i]
			}
			switch ag.Func {
			case algebra.Count:
				base := int64(0)
				if existed {
					base = oldV.AsInt()
				}
				newTuple[nAggStart+i] = value.NewInt(base + g.counts[i])
			case algebra.Sum:
				switch {
				case existed && !oldV.IsNull():
					newTuple[nAggStart+i] = value.Add(oldV, g.sums[i])
				case g.counts[i] == 0: // still no non-NULL argument
					newTuple[nAggStart+i] = value.NewNull()
				default:
					newTuple[nAggStart+i] = g.sums[i]
				}
			case algebra.Min:
				if existed && !oldV.IsNull() && (g.mins[i].IsNull() || value.Compare(oldV, g.mins[i]) < 0) {
					newTuple[nAggStart+i] = oldV
				} else {
					newTuple[nAggStart+i] = g.mins[i]
				}
			case algebra.Max:
				if existed && !oldV.IsNull() && (g.maxs[i].IsNull() || value.Compare(oldV, g.maxs[i]) > 0) {
					newTuple[nAggStart+i] = oldV
				} else {
					newTuple[nAggStart+i] = g.maxs[i]
				}
			}
		}
		switch {
		case !existed && live > 0:
			out.Insert(newTuple, 1)
		case existed && live == 0:
			out.Delete(oldTuple, 1)
		case existed && live > 0:
			out.Modify(oldTuple, newTuple, 1)
		}
	}
	return out, p.lives, nil
}

// Full recomputes each affected group from its pre-update rows (supplied
// by oldGroup — a query on the child, or GroupRowsFromDelta when the
// delta covers whole groups) plus the delta, at a cost of one pass over
// the delta plus, per affected group, one pass over its pre-update rows
// and one over its post-update bag: bucket groups the delta once,
// oldGroup is posed once per group, and the group's bag is netted per
// tuple in plan scratch (first-seen order: the surviving pre-update rows,
// then the rows the delta adds). Both bags are aggregated by the same
// left-to-right fold, so a float SUM written this window is bit-equal to
// the one the next window recomputes from the same rows in that order.
//
// A deletion of more copies than the group holds is clamped at none, as
// storage does: the output is right for the rows that are really there
// even when one window deletes, or deletes and then modifies, a row
// twice.
//
// The output delta and live counts (every affected group's post-update
// bag cardinality) are plan scratch, valid until the next fold or Full on
// this plan (or arena reset).
func (p *AggregatePlan) Full(d *Delta, oldGroup func(value.Tuple) ([]storage.Row, error)) (*Delta, []GroupLive, error) {
	p.bucket(d, false)
	out := resetOut(&p.outD, p.out)
	p.lives = p.lives[:0]
	s := &p.state
	for gi := range p.accs {
		g := &p.accs[gi]
		oldRows, err := oldGroup(g.key)
		if err != nil {
			return nil, nil, err
		}
		s.reset(g.key, len(p.a.Aggs))
		for _, r := range oldRows {
			p.fold(s, r.Tuple, r.Count)
		}
		oldTuple, oldOK := p.groupTuple(s)

		s.reset(g.key, len(p.a.Aggs))
		for _, r := range p.netGroup(oldRows, g.rows) {
			if r.count > 0 {
				p.fold(s, r.tuple, r.count)
			}
		}
		newTuple, newOK := p.groupTuple(s)
		p.lives = append(p.lives, GroupLive{g.key, s.live})
		switch {
		case oldOK && newOK:
			out.Modify(oldTuple, newTuple, 1)
		case oldOK:
			out.Delete(oldTuple, 1)
		case newOK:
			out.Insert(newTuple, 1)
		}
	}
	return out, p.lives, nil
}

// netGroup nets a group's pre-update rows and its signed delta rows
// (positions in p.sbuf) per tuple, in first-seen order. The result is
// plan scratch, valid until the next call; entries netted to zero or
// below are not part of the post-update bag.
func (p *AggregatePlan) netGroup(oldRows []storage.Row, rows []int32) []signedRow {
	p.netIdx.Reset()
	p.net = p.net[:0]
	for _, r := range oldRows {
		p.netAdd(r.Tuple, r.Count)
	}
	for _, i := range rows {
		p.netAdd(p.sbuf[i].tuple, p.sbuf[i].count)
	}
	return p.net
}

func (p *AggregatePlan) netAdd(t value.Tuple, n int64) {
	idx, _, existed := p.netIdx.GetOrPut(p.enc.Key(t), int32(len(p.net)))
	if existed {
		p.net[*idx].count += n
	} else {
		p.net = append(p.net, signedRow{tuple: t, count: n})
	}
}

// groupTuple renders a group's state as its output tuple; ok is false
// when the group is empty.
func (p *AggregatePlan) groupTuple(g *acc) (value.Tuple, bool) {
	if g.live <= 0 {
		return nil, false
	}
	ng := len(p.gpos)
	out := p.arena.NewTuple(ng + len(p.a.Aggs))
	copy(out, g.key)
	for i, ag := range p.a.Aggs {
		switch {
		case ag.Func == algebra.Count || ag.Arg == nil:
			out[ng+i] = value.NewInt(g.counts[i])
		case g.counts[i] == 0: // no non-NULL argument: every other aggregate is NULL
		case ag.Func == algebra.Sum:
			out[ng+i] = g.sums[i]
		case ag.Func == algebra.Avg:
			out[ng+i] = value.NewFloat(g.sums[i].AsFloat() / float64(g.counts[i]))
		case ag.Func == algebra.Min:
			out[ng+i] = g.mins[i]
		case ag.Func == algebra.Max:
			out[ng+i] = g.maxs[i]
		}
	}
	return out, true
}
