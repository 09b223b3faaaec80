package delta

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/bytemap"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/value"
)

// Compiled propagation plans: the only form of the select, project, join
// and aggregate delta rules. Along a cached update track every window
// sees the same child schemas and the same expressions, so the
// maintenance runtime compiles each step once per operation node —
// column positions resolved, expressions compiled to expr.Prog — and
// replays it with zero per-window schema resolution or predicate
// compilation. Plans own
// their scratch buffers (KeyEncoder, probe cache, output delta), so one
// plan must not be applied concurrently — matching the single-threaded
// propagation pass that uses them.
//
// Allocation discipline: each plan reuses a single output Delta across
// Apply calls, and (when an arena is attached via SetArena) bump-
// allocates derived tuples from the caller's per-window arena. The
// returned *Delta and its tuples are therefore valid only until the
// plan's next Apply / the arena's next Reset — the "no tuple escapes
// its window" rule. Callers that need longer-lived results (tests) use
// plans without an arena and copy what they keep.

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
	p, err := expr.CompileProg(sel.Pred, in)
	if err != nil {
		return nil, err
	}
	return &SelectPlan{sel: sel, pred: p.Eval}, nil
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
		f, err := expr.CompileProg(it.E, in)
		if err != nil {
			return nil, err
		}
		fs[i] = f.Eval
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

// joinOut is where a join step's output goes — the one thing that differs
// between building a node's delta and streaming it into the aggregate
// above. With agg nil each output tuple is concatenated in the window
// arena and appended to d; with agg set it is assembled in a reused
// scratch tuple (one per half of a modification) and folded at once, so
// the join's delta never exists. Either way the output is the
// differential's terms as derived, un-netted: a +t may be followed by
// its −t. Whoever stores the delta, or poses queries by its rows, nets
// it first (the maintainer does; DESIGN.md §7). A side that folds by
// side (sideFold) skips the sink: it folds a change against the summary
// of all its matches at once.
type joinOut struct {
	d        Delta
	agg      *AggregatePlan
	arena    *value.Arena
	scratch  [2]value.Tuple
	n        int   // changes emitted
	factored int64 // changes folded by side
}

// concat returns l++r; half is the scratch tuple a folded row may
// overwrite (0: a deletion, or the old half of a modification).
func (o *joinOut) concat(half int, l, r value.Tuple) value.Tuple {
	if o.agg == nil {
		return o.arena.ConcatTuples(l, r)
	}
	o.scratch[half] = append(append(o.scratch[half][:0], l...), r...)
	return o.scratch[half]
}

// change emits one output change in Change's three shapes (nil old: an
// insertion; nil new: a deletion; both nil: nothing).
func (o *joinOut) change(old, new value.Tuple, n int64) {
	switch {
	case old == nil && new == nil:
		return
	case o.agg != nil:
		if old != nil {
			o.agg.fold(o.agg.getAcc(old), old, -n)
		}
		if new != nil {
			o.agg.fold(o.agg.getAcc(new), new, n)
		}
	case old == nil:
		o.d.Insert(new, n)
	case new == nil:
		o.d.Delete(old, n)
	default:
		o.d.Modify(old, new, n)
	}
	o.n++
}

// joinSide is the compiled one-sided propagation of a join: the join key
// positions in the delta-side schema, plus a reusable per-window probe
// cache keyed by encoded join key.
type joinSide struct {
	p     *JoinPlan
	side  int
	pos   []int
	cache bytemap.Map[int32] // encoded join key → index in ents
	ents  []matches
	enc   value.KeyEncoder
	fold  *sideFold // while ApplyInto streams into an aggregate this side factors for
}

// run emits the side's term of the differential (ΔL⋈R_old, or L_old⋈ΔR)
// using probe for the other side's pre-update rows. The probe cache
// mirrors the one-query-per-key cost model within this call; it is
// cleared on entry, so stale pre-states never leak across windows.
//
// A modification that preserves the join key stays a modification,
// paired with each matching row (either half may fail the residual);
// one that moves the tuple across join keys becomes a deletion of the
// old matches, then an insertion of the new.
func (s *joinSide) run(d *Delta, probe Probe) error {
	s.cache.Reset()
	s.ents = s.ents[:0]
	for _, c := range d.Changes {
		old, new := c.Old, c.New
		if old != nil && new != nil && !projEqual(old, new, s.pos) {
			if err := s.emit(old, nil, c.Count, probe); err != nil {
				return err
			}
			old = nil
		}
		if err := s.emit(old, new, c.Count, probe); err != nil {
			return err
		}
	}
	return nil
}

// emit joins one change of this side (old and new agree on the join key
// when both are set) with the other side's matching rows.
func (s *joinSide) emit(old, new value.Tuple, count int64, probe Probe) error {
	mine := old
	if mine == nil {
		mine = new
	}
	kb := s.enc.ProjectedKey(mine, s.pos) // ours alone: still valid after probe
	mi, ok := s.cache.Get(kb)
	if !ok {
		jk := s.p.out.arena.NewTuple(len(s.pos))
		for i, j := range s.pos {
			jk[i] = mine[j]
		}
		rows, err := probe(jk)
		if err != nil {
			return err
		}
		if len(s.ents) < cap(s.ents) {
			s.ents = s.ents[:len(s.ents)+1]
		} else {
			s.ents = append(s.ents, matches{})
		}
		mi = int32(len(s.ents) - 1)
		s.ents[mi].rows = rows
		if s.fold != nil {
			s.fold.summarise(&s.ents[mi])
		}
		s.cache.Put(kb, mi)
	}
	m := &s.ents[mi]
	if len(m.rows) > 0 && s.fold != nil && m.ok && s.fold.fold(m, old, new, count) {
		s.p.out.n += len(m.rows)
		s.p.out.factored++
		return nil
	}
	for _, r := range m.rows {
		s.p.out.change(s.half(0, old, r.Tuple), s.half(1, new, r.Tuple), count*r.Count)
	}
	return nil
}

// half concatenates one half of a change with a row of the other side,
// in the join's column order; nil when the half is absent or fails the
// residual.
func (s *joinSide) half(h int, mine, other value.Tuple) value.Tuple {
	if mine == nil {
		return nil
	}
	if s.side == 1 {
		mine, other = other, mine
	}
	return s.p.keep(s.p.out.concat(h, mine, other))
}

// JoinPlan is a compiled join propagation step: both sides' key
// positions and probe caches, the residual, and the scratch of the
// ΔL⋈ΔR term for the both-sides-changed case.
type JoinPlan struct {
	j           *algebra.Join
	in          [2]*catalog.Schema
	left, right joinSide
	outSchema   *catalog.Schema
	residual    func(value.Tuple) value.Value
	enc         value.KeyEncoder
	out         joinOut
	sbufL       []signedRow
	sbufR       []signedRow
	build       bytemap.Map[int32]
	buckets     [][]int32
	nb          int
	foldAgg     *AggregatePlan // what folds are compiled for
	folds       [2]*sideFold   // per side; nil folds per joined row
}

// CompileJoin compiles both propagation directions of j against the
// children's schemas (lin for j.L, rin for j.R).
func CompileJoin(j *algebra.Join, lin, rin *catalog.Schema) (*JoinPlan, error) {
	p := &JoinPlan{j: j, in: [2]*catalog.Schema{lin, rin}, outSchema: j.Schema()}
	p.left, p.right = joinSide{p: p, side: 0}, joinSide{p: p, side: 1}
	for _, c := range j.On {
		li, err := lin.Resolve(c.Left)
		if err != nil {
			return nil, err
		}
		ri, err := rin.Resolve(c.Right)
		if err != nil {
			return nil, err
		}
		p.left.pos, p.right.pos = append(p.left.pos, li), append(p.right.pos, ri)
	}
	if j.Residual != nil {
		f, err := expr.CompileProg(j.Residual, p.outSchema)
		if err != nil {
			return nil, err
		}
		p.residual = f.Eval
	}
	return p, nil
}

// SetArena attaches a per-window arena for concatenated output tuples.
func (p *JoinPlan) SetArena(a *value.Arena) { p.out.arena = a }

// keep returns t if it passes the residual, nil otherwise.
func (p *JoinPlan) keep(t value.Tuple) value.Tuple {
	if p.residual != nil && !p.residual(t).Truth() {
		return nil
	}
	return t
}

// Apply derives the join's delta from its children's (either may be
// empty): the terms of the bag-join differential
//
//	Δ(L⋈R) = ΔL⋈R_old ∪ L_old⋈ΔR ∪ ΔL⋈ΔR
//
// one after the other, un-netted — with both inputs changed, the third
// term cancels rows of the first two. probeR and probeL answer against
// the pre-update states. The result is valid until the next Apply or
// ApplyInto on this plan (or arena reset).
func (p *JoinPlan) Apply(dl, dr *Delta, probeL, probeR Probe) (*Delta, error) {
	p.out.agg = nil
	p.left.fold, p.right.fold = nil, nil
	return &p.out.d, p.run(dl, dr, probeL, probeR)
}

// ApplyInto is Apply with every output row folded into agg as it is
// derived instead of being kept: agg is left holding the fold, for
// FinishFold. It requires Linear aggregates — nothing nets the rows. A
// side that Factor splits folds each change against its matches' summary
// (sideFold); a side it does not split, Float values and the ΔL⋈ΔR term
// fold per joined row. It returns the number of changes Apply would have
// held.
func (p *JoinPlan) ApplyInto(agg *AggregatePlan, dl, dr *Delta, probeL, probeR Probe) (int, error) {
	agg.StartFold()
	p.out.agg = agg
	p.left.fold, p.right.fold = p.foldsInto(agg)
	err := p.run(dl, dr, probeL, probeR)
	obsFactored.Add(p.out.factored)
	return p.out.n, err
}

// foldsInto returns how each side folds into agg, deciding (Factor) and
// compiling when the plan streams into agg for the first time. A join
// step streams into one aggregate step, the one above it on every track.
func (p *JoinPlan) foldsInto(agg *AggregatePlan) (*sideFold, *sideFold) {
	if p.foldAgg != agg {
		p.foldAgg = agg
		for s := range p.folds {
			p.folds[s] = Factor(p.j, agg.a, p.in[0], p.in[1], s).compile(agg, p.in[s], p.in[1-s])
		}
	}
	return p.folds[0], p.folds[1]
}

func (p *JoinPlan) run(dl, dr *Delta, probeL, probeR Probe) error {
	p.out.n, p.out.factored = 0, 0
	resetOut(&p.out.d, p.outSchema)
	if !dl.Empty() {
		if err := p.left.run(dl, probeR); err != nil {
			return err
		}
	}
	if !dr.Empty() {
		if err := p.right.run(dr, probeL); err != nil {
			return err
		}
		if !dl.Empty() {
			p.deltaDelta(dl, dr)
		}
	}
	return nil
}

// deltaDelta emits the signed join ΔL⋈ΔR with precompiled positions.
// The build side is hashed into plan-owned scratch (an open-addressed
// key table plus reusable bucket lists), so steady-state windows index
// ΔR without per-call map allocation. Keys match by value.Equal, as the
// probes of the other two terms match them: Int 1 joins Float 1.0 and
// +0.0 joins −0.0 here too.
func (p *JoinPlan) deltaDelta(dl, dr *Delta) {
	p.sbufR = dr.appendSigned(p.sbufR[:0])
	p.build.Reset()
	for i := 0; i < p.nb; i++ {
		p.buckets[i] = p.buckets[i][:0]
	}
	p.nb = 0
	for i := range p.sbufR {
		kb := p.enc.EqualKey(p.sbufR[i].tuple, p.right.pos)
		bid, _, existed := p.build.GetOrPut(kb, int32(p.nb))
		if !existed {
			if p.nb == len(p.buckets) {
				p.buckets = append(p.buckets, nil)
			}
			p.nb++
		}
		p.buckets[*bid] = append(p.buckets[*bid], int32(i))
	}
	p.sbufL = dl.appendSigned(p.sbufL[:0])
	for li := range p.sbufL {
		lsr := &p.sbufL[li]
		kb := p.enc.EqualKey(lsr.tuple, p.left.pos)
		bid, ok := p.build.Get(kb)
		if !ok {
			continue
		}
		for _, ri := range p.buckets[bid] {
			rsr := &p.sbufR[ri]
			if !p.keysEqual(lsr.tuple, rsr.tuple) {
				continue
			}
			t := p.keep(p.out.concat(0, lsr.tuple, rsr.tuple))
			if n := lsr.count * rsr.count; n > 0 {
				p.out.change(nil, t, n)
			} else if n < 0 {
				p.out.change(t, nil, -n)
			}
		}
	}
}

// keysEqual reports whether a left and a right tuple join: their key
// columns are pairwise value.Equal.
func (p *JoinPlan) keysEqual(l, r value.Tuple) bool {
	for i, lp := range p.left.pos {
		if !value.Equal(l[lp], r[p.right.pos[i]]) {
			return false
		}
	}
	return true
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
	last   int         // index in accs of the previous lookup's group
	gk     value.Tuple // the group key being looked up
	sbuf   []signedRow
	outD   Delta
	lives  []GroupLive
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
	p := &AggregatePlan{a: a, gpos: gpos, out: a.Schema(), gk: make(value.Tuple, len(gpos))}
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
		f, err := expr.CompileProg(ag.Arg, in)
		if err != nil {
			return nil, err
		}
		p.argFns[i] = f.Eval
	}
	return p, nil
}

// SetArena attaches a per-window arena for group-key and output tuples.
func (p *AggregatePlan) SetArena(a *value.Arena) { p.arena = a }
