package delta

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/bytemap"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Compiled propagation plans: the compile-once/apply-many split of the
// per-operator delta functions. Select/Project/JoinSide resolve column
// positions and compile predicates against the child schema every call;
// along a cached update track those are the same schema and the same
// expressions window after window, so the maintenance runtime compiles
// each step once per operation node and replays it with zero per-window
// schema resolution or predicate compilation. Plans own
// their scratch buffers (KeyEncoder, probe cache, output delta), so one
// plan must not be applied concurrently — matching the single-threaded
// propagation pass that uses them.
//
// Allocation discipline: each plan reuses a single output Delta across
// Apply calls, and (when an arena is attached via SetArena) bump-
// allocates derived tuples from the caller's per-window arena. The
// returned *Delta and its tuples are therefore valid only until the
// plan's next Apply / the arena's next Reset — the "no tuple escapes
// its window" rule. Callers that need longer-lived results (one-shot
// helpers, tests) use plans without an arena and copy what they keep.

// reset prepares a plan-owned output delta for reuse.
func resetOut(d *Delta, s *catalog.Schema) *Delta {
	d.Schema = s
	d.Changes = d.Changes[:0]
	return d
}

// SelectPlan is a compiled Select propagation step.
type SelectPlan struct {
	sel  *algebra.Select
	pred func(value.Tuple) value.Value
	outD Delta
}

// CompileSelect compiles sel's predicate against the child schema.
func CompileSelect(sel *algebra.Select, in *catalog.Schema) (*SelectPlan, error) {
	f, err := expr.CompileFast(sel.Pred, in)
	if err != nil {
		return nil, err
	}
	return &SelectPlan{sel: sel, pred: f}, nil
}

// Apply propagates d through the compiled selection. The result is
// valid until the next Apply on this plan.
func (p *SelectPlan) Apply(d *Delta) (*Delta, error) {
	out := resetOut(&p.outD, d.Schema)
	for _, c := range d.Changes {
		oldIn := c.Old != nil && p.pred(c.Old).Truth()
		newIn := c.New != nil && p.pred(c.New).Truth()
		switch {
		case oldIn && newIn:
			out.Modify(c.Old, c.New, c.Count)
		case oldIn:
			out.Delete(c.Old, c.Count)
		case newIn:
			out.Insert(c.New, c.Count)
		}
	}
	return out, nil
}

// ProjectPlan is a compiled Project propagation step.
type ProjectPlan struct {
	p     *algebra.Project
	fs    []func(value.Tuple) value.Value
	out   *catalog.Schema
	arena *value.Arena
	outD  Delta
}

// CompileProject compiles p's items against the child schema.
func CompileProject(p *algebra.Project, in *catalog.Schema) (*ProjectPlan, error) {
	fs := make([]func(value.Tuple) value.Value, len(p.Items))
	for i, it := range p.Items {
		f, err := expr.CompileFast(it.E, in)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return &ProjectPlan{p: p, fs: fs, out: p.Schema()}, nil
}

// SetArena attaches a per-window arena for output tuples.
func (p *ProjectPlan) SetArena(a *value.Arena) { p.arena = a }

// Apply propagates d through the compiled projection. The result is
// valid until the next Apply on this plan (or arena reset).
func (p *ProjectPlan) Apply(d *Delta) (*Delta, error) {
	apply := func(t value.Tuple) value.Tuple {
		if t == nil {
			return nil
		}
		out := p.arena.NewTuple(len(p.fs))
		for i, f := range p.fs {
			out[i] = f(t)
		}
		return out
	}
	out := resetOut(&p.outD, p.out)
	for _, c := range d.Changes {
		o, n := apply(c.Old), apply(c.New)
		switch {
		case o != nil && n != nil:
			out.Modify(o, n, c.Count)
		case o != nil:
			out.Delete(o, c.Count)
		case n != nil:
			out.Insert(n, c.Count)
		}
	}
	return out, nil
}

// JoinSidePlan is a compiled one-sided join propagation step: the join
// key positions in the delta-side schema and the compiled residual, plus
// a reusable per-window probe cache keyed by encoded join key.
type JoinSidePlan struct {
	j         *algebra.Join
	side      int
	pos       []int
	outSchema *catalog.Schema
	residual  func(value.Tuple) value.Value
	cache     map[string][]storage.Row
	enc       value.KeyEncoder
	arena     *value.Arena
	outD      Delta
}

// CompileJoinSide compiles the side-`side` propagation of j (0 = delta
// arrives on j.L) against that side's child schema.
func CompileJoinSide(j *algebra.Join, side int, in *catalog.Schema) (*JoinSidePlan, error) {
	var myCols []string
	if side == 0 {
		myCols = j.LeftCols()
	} else {
		myCols = j.RightCols()
	}
	pos := make([]int, len(myCols))
	for i, c := range myCols {
		k, err := in.Resolve(c)
		if err != nil {
			return nil, err
		}
		pos[i] = k
	}
	outSchema := j.Schema()
	p := &JoinSidePlan{j: j, side: side, pos: pos, outSchema: outSchema}
	if j.Residual != nil {
		f, err := expr.CompileFast(j.Residual, outSchema)
		if err != nil {
			return nil, err
		}
		p.residual = f
	}
	return p, nil
}

// SetArena attaches a per-window arena for concatenated output tuples.
func (p *JoinSidePlan) SetArena(a *value.Arena) { p.arena = a }

// Apply propagates d (arriving on the plan's side) using probe for the
// other side's pre-update rows. The plan-level probe cache mirrors the
// one-query-per-key cost model within this call; it is cleared on entry,
// so stale pre-states never leak across windows. The result is valid
// until the next Apply on this plan (or arena reset).
func (p *JoinSidePlan) Apply(d *Delta, probe Probe) (*Delta, error) {
	if p.cache == nil {
		p.cache = map[string][]storage.Row{}
	} else {
		clear(p.cache)
	}
	concat := func(mine, other value.Tuple) value.Tuple {
		if p.side == 0 {
			return p.arena.ConcatTuples(mine, other)
		}
		return p.arena.ConcatTuples(other, mine)
	}
	keep := func(t value.Tuple) bool {
		return p.residual == nil || p.residual(t).Truth()
	}
	matches := func(t value.Tuple) ([]storage.Row, error) {
		kb := p.enc.ProjectedKey(t, p.pos)
		if rows, ok := p.cache[string(kb)]; ok {
			return rows, nil
		}
		k := string(kb)
		rows, err := probe(t.Project(p.pos))
		if err != nil {
			return nil, err
		}
		p.cache[k] = rows
		return rows, nil
	}
	out := resetOut(&p.outD, p.outSchema)
	for _, c := range d.Changes {
		switch {
		case c.IsInsert():
			rows, err := matches(c.New)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				if t := concat(c.New, r.Tuple); keep(t) {
					out.Insert(t, c.Count*r.Count)
				}
			}
		case c.IsDelete():
			rows, err := matches(c.Old)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				if t := concat(c.Old, r.Tuple); keep(t) {
					out.Delete(t, c.Count*r.Count)
				}
			}
		default: // modify
			if projEqual(c.Old, c.New, p.pos) {
				rows, err := matches(c.Old)
				if err != nil {
					return nil, err
				}
				for _, r := range rows {
					ot, nt := concat(c.Old, r.Tuple), concat(c.New, r.Tuple)
					oin, nin := keep(ot), keep(nt)
					switch {
					case oin && nin:
						out.Modify(ot, nt, c.Count*r.Count)
					case oin:
						out.Delete(ot, c.Count*r.Count)
					case nin:
						out.Insert(nt, c.Count*r.Count)
					}
				}
			} else {
				oldRows, err := matches(c.Old)
				if err != nil {
					return nil, err
				}
				for _, r := range oldRows {
					if t := concat(c.Old, r.Tuple); keep(t) {
						out.Delete(t, c.Count*r.Count)
					}
				}
				newRows, err := matches(c.New)
				if err != nil {
					return nil, err
				}
				for _, r := range newRows {
					if t := concat(c.New, r.Tuple); keep(t) {
						out.Insert(t, c.Count*r.Count)
					}
				}
			}
		}
	}
	return out, nil
}

// JoinPlan bundles the compiled pieces a join step can need: both side
// plans and the ΔL⋈ΔR positions for the both-sides-changed case.
type JoinPlan struct {
	j          *algebra.Join
	Left       *JoinSidePlan
	Right      *JoinSidePlan
	lpos, rpos []int
	outSchema  *catalog.Schema
	residual   func(value.Tuple) value.Value
	enc        value.KeyEncoder
	arena      *value.Arena
	nz         Normalizer
	nzOut      Delta
	cat        Delta
	ddOut      Delta
	sbufL      []signedRow
	sbufR      []signedRow
	build      bytemap.Map[int32]
	buckets    [][]int32
	nb         int
}

// CompileJoin compiles both propagation directions of j against the
// children's schemas (lin for j.L, rin for j.R).
func CompileJoin(j *algebra.Join, lin, rin *catalog.Schema) (*JoinPlan, error) {
	left, err := CompileJoinSide(j, 0, lin)
	if err != nil {
		return nil, err
	}
	right, err := CompileJoinSide(j, 1, rin)
	if err != nil {
		return nil, err
	}
	lpos := make([]int, len(j.On))
	rpos := make([]int, len(j.On))
	for i, c := range j.On {
		li, err := lin.Resolve(c.Left)
		if err != nil {
			return nil, err
		}
		ri, err := rin.Resolve(c.Right)
		if err != nil {
			return nil, err
		}
		lpos[i], rpos[i] = li, ri
	}
	p := &JoinPlan{j: j, Left: left, Right: right, lpos: lpos, rpos: rpos, outSchema: j.Schema()}
	if j.Residual != nil {
		f, err := expr.CompileFast(j.Residual, p.outSchema)
		if err != nil {
			return nil, err
		}
		p.residual = f
	}
	return p, nil
}

// SetArena attaches a per-window arena to the join and both side plans.
func (p *JoinPlan) SetArena(a *value.Arena) {
	p.arena = a
	p.Left.SetArena(a)
	p.Right.SetArena(a)
}

// ApplyBoth combines the three differential terms when both inputs
// changed (the compiled form of JoinBoth). The result is valid until
// the next ApplyBoth on this plan (or arena reset).
func (p *JoinPlan) ApplyBoth(dl, dr *Delta, probeL, probeR Probe) (*Delta, error) {
	a, err := p.Left.Apply(dl, probeR)
	if err != nil {
		return nil, err
	}
	b, err := p.Right.Apply(dr, probeL)
	if err != nil {
		return nil, err
	}
	c, err := p.applyDeltaDelta(dl, dr)
	if err != nil {
		return nil, err
	}
	cat := resetOut(&p.cat, p.outSchema)
	cat.Changes = append(cat.Changes, a.Changes...)
	cat.Changes = append(cat.Changes, b.Changes...)
	cat.Changes = append(cat.Changes, c.Changes...)
	return p.nz.NormalizeInto(cat, &p.nzOut), nil
}

// applyDeltaDelta computes the signed join ΔL⋈ΔR with precompiled
// positions. The build side is hashed into plan-owned scratch (an
// open-addressed key table plus reusable bucket lists), so steady-state
// windows index ΔR without per-call map allocation.
func (p *JoinPlan) applyDeltaDelta(dl, dr *Delta) (*Delta, error) {
	p.sbufR = dr.appendSigned(p.sbufR[:0])
	p.build.Reset()
	for i := 0; i < p.nb; i++ {
		p.buckets[i] = p.buckets[i][:0]
	}
	p.nb = 0
	for i := range p.sbufR {
		kb := p.enc.ProjectedKey(p.sbufR[i].tuple, p.rpos)
		bid, _, existed := p.build.GetOrPut(kb, int32(p.nb))
		if !existed {
			if p.nb == len(p.buckets) {
				p.buckets = append(p.buckets, nil)
			}
			p.nb++
		}
		p.buckets[*bid] = append(p.buckets[*bid], int32(i))
	}
	out := resetOut(&p.ddOut, p.outSchema)
	p.sbufL = dl.appendSigned(p.sbufL[:0])
	for li := range p.sbufL {
		lsr := &p.sbufL[li]
		kb := p.enc.ProjectedKey(lsr.tuple, p.lpos)
		bid, ok := p.build.Get(kb)
		if !ok {
			continue
		}
		for _, ri := range p.buckets[bid] {
			rsr := &p.sbufR[ri]
			t := p.arena.ConcatTuples(lsr.tuple, rsr.tuple)
			if p.residual != nil && !p.residual(t).Truth() {
				continue
			}
			n := lsr.count * rsr.count
			switch {
			case n > 0:
				out.Insert(t, n)
			case n < 0:
				out.Delete(t, -n)
			}
		}
	}
	return out, nil
}

// AggregatePlan is the compiled static part of aggregate maintenance:
// group-by positions and aggregate argument accessors resolved against
// the child schema once, plus reusable per-window group scratch.
type AggregatePlan struct {
	a      *algebra.Aggregate
	gpos   []int
	argFns []func(value.Tuple) value.Value
	out    *catalog.Schema
	arena  *value.Arena
	groups bytemap.Map[int32]
	accs   []acc
	sbuf   []signedRow
	outD   Delta
	enc    value.KeyEncoder
	// Full only: the fold of the bag being aggregated, and the group's
	// bag netted per tuple.
	state  acc
	netIdx bytemap.Map[int32]
	net    []signedRow
}

// CompileAggregate resolves a's group-by columns and compiles its
// aggregate arguments against the child schema.
func CompileAggregate(a *algebra.Aggregate, in *catalog.Schema) (*AggregatePlan, error) {
	gpos := make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		j, err := in.Resolve(g)
		if err != nil {
			return nil, err
		}
		gpos[i] = j
	}
	p := &AggregatePlan{a: a, gpos: gpos, out: a.Schema()}
	p.argFns = make([]func(value.Tuple) value.Value, len(a.Aggs))
	for i, ag := range a.Aggs {
		if ag.Arg == nil { // COUNT(*)
			continue
		}
		switch ag.Func {
		case algebra.Sum, algebra.Count, algebra.Avg, algebra.Min, algebra.Max:
		default:
			return nil, fmt.Errorf("delta: unsupported aggregate %s", ag.Func)
		}
		f, err := expr.CompileFast(ag.Arg, in)
		if err != nil {
			return nil, err
		}
		p.argFns[i] = f
	}
	return p, nil
}

// SetArena attaches a per-window arena for group-key and output tuples.
func (p *AggregatePlan) SetArena(a *value.Arena) { p.arena = a }
