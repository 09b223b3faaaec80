// Package exec evaluates logical algebra trees against a storage.Store.
//
// Two entry points matter:
//
//   - Eval computes the full result of an expression (used to materialize
//     views initially and as a correctness oracle in tests).
//   - EvalFiltered computes σ[cols = key](expr), pushing the equality
//     filter as deep as possible so that base relations and materialized
//     views are accessed through their hash indexes. This is exactly how
//     the paper answers the queries posed on equivalence nodes during
//     delta propagation (Q2Ld, Q3e, ... of Example 3.2).
//
// The evaluator charges I/O through the store's counter according to the
// storage package's conventions; Free mode suppresses charging (initial
// materialization, oracles).
package exec

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/bytemap"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Result is an in-memory relation: a schema and counted rows.
type Result struct {
	Schema *catalog.Schema
	Rows   []storage.Row
}

// Card returns the number of distinct tuples in the result.
func (r *Result) Card() int { return len(r.Rows) }

// Total returns the bag cardinality (sum of counts).
func (r *Result) Total() int64 {
	var n int64
	for _, row := range r.Rows {
		n += row.Count
	}
	return n
}

// Sorted returns the rows sorted lexicographically (stable comparisons
// for tests and golden output).
func (r *Result) Sorted() []storage.Row {
	out := make([]storage.Row, len(r.Rows))
	copy(out, r.Rows)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Tuple.Compare(out[j].Tuple) < 0
	})
	return out
}

// Evaluator executes algebra trees against a store.
type Evaluator struct {
	Store *storage.Store
	// Free suppresses I/O charging (scans and lookups become free).
	Free bool
	// Memo, when non-nil, shares full-evaluation results across repeated
	// subtrees within one maintenance window (see Memo).
	Memo Memo
	// Win, when non-nil, is the maintenance window's arena: join output
	// tuples are bump-allocated from it instead of the heap, which makes
	// every Result subject to the window ownership rule — rows are valid
	// only until the arena's next Reset. Leave nil for oracle /
	// materialization evaluators whose results must outlive a window.
	Win *value.Arena

	rows *[]storage.Row // see WithRows
	join joinScratch
}

// WithRows makes index lookups and joins append their rows to the
// caller's slab instead of to fresh slices: each such Result holds a
// capacity-clipped sub-slice of *slab, valid until the caller truncates
// it. The maintenance runtime passes the window memo's slab, which is
// truncated when the memo is. Chainable; nil restores fresh slices.
func (ev *Evaluator) WithRows(slab *[]storage.Row) *Evaluator {
	ev.rows = slab
	return ev
}

// openRows returns the slice an operator appends its output to — the
// slab, or a fresh slice with room for n rows — and where its output
// starts; closeRows returns that output. Nothing else may be evaluated
// between the two.
func (ev *Evaluator) openRows(n int) ([]storage.Row, int) {
	switch {
	case ev.rows != nil:
		return *ev.rows, len(*ev.rows)
	case n == 0:
		return nil, 0
	}
	return make([]storage.Row, 0, n), 0
}

func (ev *Evaluator) closeRows(rows []storage.Row, start int) []storage.Row {
	if ev.rows != nil {
		*ev.rows = rows
	}
	return rows[start:len(rows):len(rows)]
}

// New returns a charging evaluator over the store.
func New(st *storage.Store) *Evaluator { return &Evaluator{Store: st} }

// NewFree returns a non-charging evaluator (oracle / initial load).
func NewFree(st *storage.Store) *Evaluator { return &Evaluator{Store: st, Free: true} }

// Eval computes the full result of n. When a window memo is installed,
// repeated subtrees are evaluated once and served from the memo after
// that (results are shared — treat them as read-only).
func (ev *Evaluator) Eval(n algebra.Node) (*Result, error) {
	if res, ok := ev.evalMemo(n); ok {
		return res, nil
	}
	res, err := ev.evalNode(n)
	if err == nil && ev.Memo != nil {
		ev.Memo[n] = res
	}
	return res, err
}

func (ev *Evaluator) evalNode(n algebra.Node) (*Result, error) {
	switch t := n.(type) {
	case *algebra.Rel:
		rel, ok := ev.Store.Get(t.Def.Name)
		if !ok {
			return nil, fmt.Errorf("exec: relation %q not stored", t.Def.Name)
		}
		var rows []storage.Row
		if ev.Free {
			rows = rel.ScanFree()
		} else {
			rows = rel.Scan()
		}
		return &Result{Schema: t.Schema(), Rows: rows}, nil
	case *algebra.Select:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return filterResult(in, t.Pred)
	case *algebra.Project:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return projectResult(in, t)
	case *algebra.Join:
		l, err := ev.Eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(t.R)
		if err != nil {
			return nil, err
		}
		return ev.hashJoin(t, l, r)
	case *algebra.Aggregate:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return aggregateResult(in, t)
	case *algebra.Distinct:
		in, err := ev.Eval(t.Input)
		if err != nil {
			return nil, err
		}
		return distinctResult(in), nil
	case *algebra.Union:
		l, err := ev.Eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(t.R)
		if err != nil {
			return nil, err
		}
		return unionResult(t.Schema(), l, r, +1), nil
	case *algebra.Diff:
		l, err := ev.Eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.Eval(t.R)
		if err != nil {
			return nil, err
		}
		return unionResult(t.Schema(), l, r, -1), nil
	default:
		return nil, fmt.Errorf("exec: unsupported node %T", n)
	}
}

func filterResult(in *Result, pred expr.Expr) (*Result, error) {
	p, err := expr.CompileProg(pred, in.Schema)
	if err != nil {
		return nil, err
	}
	out := &Result{Schema: in.Schema}
	for _, row := range in.Rows {
		if p.Truth(row.Tuple) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func projectResult(in *Result, p *algebra.Project) (*Result, error) {
	items := make([]*expr.Prog, len(p.Items))
	for i, it := range p.Items {
		f, err := expr.CompileProg(it.E, in.Schema)
		if err != nil {
			return nil, err
		}
		items[i] = f
	}
	// Bag projection merges rows that collapse onto the same tuple.
	// Sized for the no-collapse case, the common one along update tracks.
	merged := make(map[string]*storage.Row, len(in.Rows))
	order := make([]string, 0, len(in.Rows))
	var enc value.KeyEncoder
	for _, row := range in.Rows {
		t := make(value.Tuple, len(items))
		for i, f := range items {
			t[i] = f.Eval(row.Tuple)
		}
		kb := enc.Key(t)
		if e, ok := merged[string(kb)]; ok {
			e.Count += row.Count
		} else {
			k := string(kb)
			merged[k] = &storage.Row{Tuple: t, Count: row.Count}
			order = append(order, k)
		}
	}
	out := &Result{Schema: p.Schema()}
	for _, k := range order {
		out.Rows = append(out.Rows, *merged[k])
	}
	return out, nil
}

// joinScratch is the hash join's build table. It lives on the evaluator
// so that an evaluator posed many queries (the maintainer's: one per
// affected group per window) builds every table in the same memory. The
// build rows of one join key form a list threaded through next in build
// order; heads remembers each probe row's list, so the output is sized
// before it is filled.
type joinScratch struct {
	enc        value.KeyEncoder
	lpos, rpos []int
	idx        bytemap.Map[joinList] // join key → its build rows
	next       []int32               // per build row: the next row with its key, -1 at the end
	heads      []int32               // per probe row: first matching build row, -1 for none
}

type joinList struct{ head, tail, n int32 }

func (ev *Evaluator) hashJoin(j *algebra.Join, l, r *Result) (*Result, error) {
	s := &ev.join
	s.lpos, s.rpos = s.lpos[:0], s.rpos[:0]
	for _, c := range j.On {
		li, err := l.Schema.Resolve(c.Left)
		if err != nil {
			return nil, err
		}
		ri, err := r.Schema.Resolve(c.Right)
		if err != nil {
			return nil, err
		}
		s.lpos, s.rpos = append(s.lpos, li), append(s.rpos, ri)
	}
	s.idx.Reset()
	s.next = s.next[:0]
	for i, row := range r.Rows {
		at := int32(i)
		list, _, existed := s.idx.GetOrPut(s.enc.ProjectedKey(row.Tuple, s.rpos), joinList{head: at, tail: at, n: 1})
		s.next = append(s.next, -1)
		if existed {
			s.next[list.tail] = at
			list.tail = at
			list.n++
		}
	}
	matches := 0
	s.heads = s.heads[:0]
	for _, lrow := range l.Rows {
		head := int32(-1)
		if list := s.idx.Ptr(s.enc.ProjectedKey(lrow.Tuple, s.lpos)); list != nil {
			head = list.head
			matches += int(list.n)
		}
		s.heads = append(s.heads, head)
	}
	residual, err := joinResidual(j)
	if err != nil {
		return nil, err
	}
	rows, start := ev.openRows(matches)
	for li, lrow := range l.Rows {
		for i := s.heads[li]; i >= 0; i = s.next[i] {
			rrow := r.Rows[i]
			t := ev.Win.ConcatTuples(lrow.Tuple, rrow.Tuple)
			if residual != nil && !residual.Truth(t) {
				continue
			}
			rows = append(rows, storage.Row{Tuple: t, Count: lrow.Count * rrow.Count})
		}
	}
	return &Result{Schema: j.Schema(), Rows: ev.closeRows(rows, start)}, nil
}

// joinResidual compiles j's residual predicate against the join's output
// schema, for hashJoin and probeJoin alike; nil when j has none.
func joinResidual(j *algebra.Join) (*expr.Prog, error) {
	if j.Residual == nil {
		return nil, nil
	}
	return expr.CompileProg(j.Residual, j.Schema())
}

func distinctResult(in *Result) *Result {
	out := &Result{Schema: in.Schema}
	seen := make(map[string]bool, len(in.Rows))
	var enc value.KeyEncoder
	for _, row := range in.Rows {
		kb := enc.Key(row.Tuple)
		if !seen[string(kb)] && row.Count > 0 {
			seen[string(kb)] = true
			out.Rows = append(out.Rows, storage.Row{Tuple: row.Tuple, Count: 1})
		}
	}
	return out
}

func unionResult(schema *catalog.Schema, l, r *Result, sign int64) *Result {
	merged := make(map[string]*storage.Row, len(l.Rows)+len(r.Rows))
	order := make([]string, 0, len(l.Rows)+len(r.Rows))
	var enc value.KeyEncoder
	add := func(row storage.Row, mult int64) {
		kb := enc.Key(row.Tuple)
		if e, ok := merged[string(kb)]; ok {
			e.Count += row.Count * mult
		} else {
			k := string(kb)
			merged[k] = &storage.Row{Tuple: row.Tuple, Count: row.Count * mult}
			order = append(order, k)
		}
	}
	for _, row := range l.Rows {
		add(row, 1)
	}
	for _, row := range r.Rows {
		add(row, sign)
	}
	out := &Result{Schema: schema}
	for _, k := range order {
		e := merged[k]
		if e.Count > 0 {
			out.Rows = append(out.Rows, *e)
		}
	}
	return out
}
