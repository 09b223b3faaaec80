package maintain

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/tracks"
	"repro/internal/value"
)

// ShardClass classifies a materialized view's relationship to a
// hash partitioning of the base relations on one column.
type ShardClass int

const (
	// ShardLocal views decompose exactly: the global view is the bag
	// union of the per-shard views, because every tuple that could
	// contribute to one output row lives on one shard.
	ShardLocal ShardClass = iota
	// ShardSpanning views are aggregates whose group keys are spread
	// across shards; each shard holds partial aggregates and a merge
	// stage combines them (SUM/COUNT add, MIN/MAX compare).
	ShardSpanning
	// ShardInvalid views cannot be maintained shard-locally under the
	// partitioning; their presence forces the fallback to one shard.
	ShardInvalid
)

// String names the class for reports.
func (c ShardClass) String() string {
	switch c {
	case ShardLocal:
		return "local"
	case ShardSpanning:
		return "spanning"
	default:
		return "invalid"
	}
}

// ViewPartition is the per-view outcome of partition analysis.
type ViewPartition struct {
	Class  ShardClass
	Reason string // why invalid ("" otherwise)

	// Spanning views only: the output prefix [0, NGroup) is the group
	// key and Aggs describes how to combine the remaining columns.
	NGroup int
	Aggs   []algebra.AggSpec
}

// Partitioning is the analysis of one DAG + view set against a hash
// partitioning of the base relations on Column into Shards shards.
// When any materialized view is ShardInvalid the analysis records the
// first reason and Effective falls back to 1 (a single shard holding
// everything is trivially correct); otherwise Effective == Shards.
type Partitioning struct {
	Column    string
	Shards    int
	Effective int
	Reason    string

	// Views maps each materialized eq ID to its class.
	Views map[int]ViewPartition

	// basePos maps each base relation to the position of Column in its
	// schema, or -1 when the relation lacks the column and routes by
	// whole-tuple hash (equal tuples still collocate, which is all
	// locality a column-free relation can need).
	basePos map[string]int
}

// shardViewName is the checkpoint name of shard i's part of a view. It
// names the partitioning, so a checkpoint taken on another column or
// shard count holds no state for this shard and its views are
// recomputed rather than seeded with another partition's rows.
func (p *Partitioning) shardViewName(view string, i int) string {
	return fmt.Sprintf("%s@%s:%d/%d", view, p.Column, i, p.Effective)
}

// carry is the recursive analysis state: the class of a subtree plus
// the output column positions whose value always equals the row's
// partition-column value (the positions locality proofs rest on).
type carry struct {
	class  ShardClass
	pos    []int
	reason string
	agg    *algebra.Aggregate // set when class == ShardSpanning
}

func invalidCarry(format string, args ...any) carry {
	return carry{class: ShardInvalid, reason: fmt.Sprintf(format, args...)}
}

func analyzeNode(n algebra.Node, col string) carry {
	switch t := n.(type) {
	case *algebra.Rel:
		c := carry{class: ShardLocal}
		if col != "" {
			for j, sc := range t.Def.Schema.Cols {
				if sc.Name == col {
					c.pos = append(c.pos, j)
				}
			}
		}
		return c

	case *algebra.Select:
		in := analyzeNode(t.Input, col)
		if in.class != ShardLocal {
			if in.class == ShardSpanning {
				return invalidCarry("selection above a spanning aggregate reads partial aggregates")
			}
			return in
		}
		return in // schema unchanged, positions carry through

	case *algebra.Project:
		in := analyzeNode(t.Input, col)
		if in.class != ShardLocal {
			if in.class == ShardSpanning {
				return invalidCarry("projection above a spanning aggregate reads partial aggregates")
			}
			return in
		}
		out := carry{class: ShardLocal}
		schema := t.Input.Schema()
		for i, it := range t.Items {
			c, ok := it.E.(expr.Col)
			if !ok {
				continue
			}
			j, err := schema.Resolve(c.Name)
			if err != nil {
				continue
			}
			if containsInt(in.pos, j) {
				out.pos = append(out.pos, i)
			}
		}
		return out

	case *algebra.Join:
		l := analyzeNode(t.L, col)
		if l.class != ShardLocal {
			return invalidCarry("left join input is not shard-local (%s)", l.reason)
		}
		r := analyzeNode(t.R, col)
		if r.class != ShardLocal {
			return invalidCarry("right join input is not shard-local (%s)", r.reason)
		}
		ls, rs := t.L.Schema(), t.R.Schema()
		matched := false
		for _, cond := range t.On {
			lp, rp, ok := resolveCond(ls, rs, cond)
			if !ok {
				continue
			}
			if containsInt(l.pos, lp) && containsInt(r.pos, rp) {
				matched = true
				break
			}
		}
		if !matched {
			return invalidCarry("no join condition equates the partition column %q on both sides", col)
		}
		out := carry{class: ShardLocal, pos: append([]int{}, l.pos...)}
		off := ls.Len()
		for _, p := range r.pos {
			out.pos = append(out.pos, off+p)
		}
		return out

	case *algebra.Aggregate:
		in := analyzeNode(t.Input, col)
		if in.class != ShardLocal {
			if in.class == ShardSpanning {
				return invalidCarry("aggregate above a spanning aggregate re-aggregates partial aggregates")
			}
			return in
		}
		schema := t.Input.Schema()
		out := carry{class: ShardLocal}
		for gi, g := range t.GroupBy {
			j, err := schema.Resolve(g)
			if err != nil {
				continue
			}
			if containsInt(in.pos, j) {
				out.pos = append(out.pos, gi)
			}
		}
		if len(out.pos) > 0 {
			return out // grouping on the partition column keeps groups whole
		}
		for _, ag := range t.Aggs {
			switch ag.Func {
			case algebra.Sum, algebra.Count, algebra.Min, algebra.Max:
			default:
				return invalidCarry("aggregate %s cannot be merged from per-shard partials", ag.Func)
			}
		}
		return carry{class: ShardSpanning, agg: t}

	case *algebra.Distinct:
		in := analyzeNode(t.Children()[0], col)
		if in.class != ShardLocal {
			if in.class == ShardSpanning {
				return invalidCarry("distinct above a spanning aggregate reads partial aggregates")
			}
			return in
		}
		if len(in.pos) == 0 {
			return invalidCarry("DISTINCT input does not carry the partition column; duplicates may span shards")
		}
		return in

	default:
		return invalidCarry("operator %s is not supported under sharding", n.Kind())
	}
}

// resolveCond resolves a join condition's columns against the left and
// right input schemas, trying the swapped orientation when the literal
// one fails.
func resolveCond(ls, rs *catalog.Schema, cond algebra.JoinCond) (lp, rp int, ok bool) {
	if l, err := ls.Resolve(cond.Left); err == nil {
		if r, err := rs.Resolve(cond.Right); err == nil {
			return l, r, true
		}
	}
	if l, err := ls.Resolve(cond.Right); err == nil {
		if r, err := rs.Resolve(cond.Left); err == nil {
			return l, r, true
		}
	}
	return 0, 0, false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// AnalyzePartitioning classifies every materialized view of vs against
// a hash partitioning on col into shards shards. A spanning aggregate
// is only mergeable when it is the root of its own rep tree — any
// operator above it would compute over partial aggregates — which the
// recursion enforces by invalidating operators over spanning inputs.
func AnalyzePartitioning(d *dag.DAG, vs tracks.ViewSet, col string, shards int) *Partitioning {
	p := &Partitioning{
		Column:    col,
		Shards:    shards,
		Effective: shards,
		Views:     map[int]ViewPartition{},
		basePos:   map[string]int{},
	}
	if shards < 1 {
		p.Shards, p.Effective = 1, 1
	}
	for _, e := range d.Eqs() {
		if !e.IsLeaf() {
			continue
		}
		rel, ok := d.RepTree(e).(*algebra.Rel)
		if !ok {
			continue
		}
		pos := -1
		if col != "" {
			for j, sc := range rel.Def.Schema.Cols {
				if sc.Name == col {
					pos = j
					break
				}
			}
		}
		p.basePos[e.BaseRel] = pos
	}
	for _, e := range d.NonLeafEqs() {
		if !vs[e.ID] {
			continue
		}
		c := analyzeNode(d.RepTree(e), col)
		vp := ViewPartition{Class: c.class, Reason: c.reason}
		if c.class == ShardSpanning {
			vp.NGroup = len(c.agg.GroupBy)
			vp.Aggs = c.agg.Aggs
		}
		p.Views[e.ID] = vp
		if c.class == ShardInvalid && p.Reason == "" {
			p.Reason = fmt.Sprintf("%s: %s", e, c.reason)
		}
	}
	if p.Reason != "" {
		p.Effective = 1
	}
	return p
}

// ChoosePartitionColumn picks the bare column name that keeps the most
// materialized views shard-local while invalidating none, preferring
// the lexicographically smallest on ties. It returns "" when no column
// admits a valid partitioning (callers then fall back to one shard).
func ChoosePartitionColumn(d *dag.DAG, vs tracks.ViewSet) string {
	seen := map[string]bool{}
	var cands []string
	for _, e := range d.Eqs() {
		if !e.IsLeaf() {
			continue
		}
		rel, ok := d.RepTree(e).(*algebra.Rel)
		if !ok {
			continue
		}
		for _, sc := range rel.Def.Schema.Cols {
			if !seen[sc.Name] {
				seen[sc.Name] = true
				cands = append(cands, sc.Name)
			}
		}
	}
	sort.Strings(cands)
	best, bestScore := "", -1
	for _, cand := range cands {
		an := AnalyzePartitioning(d, vs, cand, 2)
		if an.Reason != "" {
			continue
		}
		score := 0
		for _, vp := range an.Views {
			if vp.Class == ShardLocal {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}

// Describe renders the analysis for logs and Explain output.
func (p *Partitioning) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition by %q into %d shards (effective %d)", p.Column, p.Shards, p.Effective)
	if p.Reason != "" {
		fmt.Fprintf(&b, "; fallback: %s", p.Reason)
	}
	return b.String()
}

// Router routes base-relation tuples to shards by an FNV-1a hash of the
// partition column's key encoding (whole-tuple encoding for relations
// without the column). Routing is a pure function of the tuple bytes —
// value.KeyEncoder output is byte-identical to Tuple.Key — so the same
// tuple lands on the same shard in every window, every process and at
// recovery. Not safe for concurrent use (one reused key buffer); the
// window splitter routes single-threaded before fanning out.
type Router struct {
	n   int
	pos map[string]int
	enc value.KeyEncoder
	one [1]int
}

// NewRouter builds the router for the analysis at its effective shard
// count.
func (p *Partitioning) NewRouter() *Router {
	return &Router{n: p.Effective, pos: p.basePos}
}

// Shards returns the router's shard count.
func (r *Router) Shards() int { return r.n }

// Route maps one tuple of rel to a shard in [0, n). Relations unknown
// to the analysis route by whole-tuple hash, keeping Route total.
func (r *Router) Route(rel string, t value.Tuple) int {
	if r.n <= 1 {
		return 0
	}
	pos, ok := r.pos[rel]
	var key []byte
	if ok && pos >= 0 && pos < len(t) {
		r.one[0] = pos
		key = r.enc.ProjectedKey(t, r.one[:])
	} else {
		key = r.enc.Key(t)
	}
	return int(fnv1a(key) % uint64(r.n))
}

// fnv1a is the 64-bit FNV-1a hash of key.
func fnv1a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
