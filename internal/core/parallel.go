// Parallel branch-and-bound over the view-set lattice.
//
// The lattice of candidate subsets is partitioned into contiguous bitmask
// ranges by high-bit prefix; a worker pool claims chunks from a shared
// counter and runs a depth-first search inside each, pruning any partial
// assignment whose monotone lower bound — the sum of the cheapest
// weighted update-only charge each forced-in view can ever incur
// (tracks.Costing.WeightedUpdateLB on its singleton set) — strictly
// exceeds the shared atomic incumbent. Because delta flows do not depend
// on the view set, every superset of a partial set pays at least that
// bound, so pruning never discards the optimum.
//
// Determinism: a live incumbent makes the *set of sets evaluated* depend
// on timing, so the raw evaluation log cannot be reported. Instead each
// evaluated set carries the maximum lower bound seen on its path
// (pathMax ≤ its true cost, by soundness), and the result keeps exactly
// the sets with pathMax ≤ W*, the optimal weighted cost: those are
// evaluated under every possible timing (pruning is strict, and the
// incumbent never goes below W*), and every optimum is among them. The
// reported Best, All, Explored and Pruned are therefore byte-identical
// at any Parallelism and any Seed. Truncated (budget-expired) searches
// are the documented exception: which sets fit the budget is
// timing-dependent above one worker.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/tracks"
)

// Registry mirrors of search effort. Workers tally privately and fold
// once per run, so the DFS hot path carries no shared atomics beyond
// the incumbent it already has.
var (
	obsSearchRuns      = obs.C("core.search.runs")
	obsSearchNodes     = obs.C("core.search.nodes_expanded")
	obsSearchEvaluated = obs.C("core.search.evaluated")
	obsSearchPruned    = obs.C("core.search.bound_prunes")
)

// MethodParallel is the Result.Method reported by Parallel. It is a
// constant — deliberately not parameterized by worker count — so results
// compare byte-identical across parallelism levels.
const MethodParallel = "parallel-bnb"

// Parallel runs Algorithm OptimalViewSet as a parallel branch-and-bound
// search. It returns the same Best as Exhaustive (and the same All
// modulo sets provably more expensive than the optimum) while costing
// far fewer view sets, using Parallelism workers.
func (o *Optimizer) Parallel() (*Result, error) {
	sp := obs.Trace.Start("core.parallel", 0)
	defer sp.Finish()
	obsSearchRuns.Inc()
	cands := o.candidates()
	if len(cands) >= 63 {
		return nil, fmt.Errorf("core: %d candidate views overflow the enumeration bitmask; use Shielded or a heuristic", len(cands))
	}
	limit := o.MaxSets
	if limit <= 0 {
		limit = 1 << 20
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	s := &parSearch{o: o, cands: cands, budget: int64(limit)}
	s.incumbent.Store(math.Float64bits(math.Inf(1)))
	// Per-candidate bound contributions: candLB[i] is the weighted
	// update-only charge candidate i incurs on its cheapest possible
	// propagation path (the roots-free singleton set's WeightedUpdateLB,
	// so only the candidate itself is ever charged). Flows are
	// view-set-independent and a full track's restriction below the
	// candidate is one of the singleton enumeration's assignments, so
	// any track of any superset charges the candidate at least candLB[i].
	// Summing over a partial set's members therefore lower-bounds the
	// cost of every superset, and the DFS bound becomes a running sum
	// with no per-mask track enumeration at all.
	s.candLB = make([]float64, len(cands))
	for i, e := range cands {
		vs := tracks.NewViewSet(e)
		if !o.Cost.CountRootUpdate {
			// Roots charge nothing here, so including them changes no
			// cost — but it makes the bundle key match the singleton
			// view sets the search evaluates later, sharing their track
			// enumeration. With CountRootUpdate the roots' own charge
			// would be double-counted across candidates; keep the pure
			// singleton then.
			vs = tracks.RootSet(o.D)
			vs[e.ID] = true
		}
		s.candLB[i] = o.Cost.WeightedUpdateLB(vs, o.Types)
		// Price the roots plus the candidate in full (without
		// CountRootUpdate, the bundle just built): the best such set is
		// an incumbent before the DFS starts. Any real set costs at least
		// the optimum, so the sets reported below do not change; only
		// fewer are evaluated.
		one := tracks.RootSet(o.D)
		one[e.ID] = true
		s.observe(o.evaluate(one).Weighted)
	}
	obsSearchEvaluated.Add(int64(len(cands)))

	// Chunk the lattice by the high prefixBits candidate bits: enough
	// chunks to keep every worker fed, few enough that per-chunk prefix
	// work stays negligible.
	prefixBits := 0
	for (1<<prefixBits) < 4*workers && prefixBits < len(cands) && prefixBits < 12 {
		prefixBits++
	}
	chunks := 1 << prefixBits
	order := rand.New(rand.NewSource(o.Seed)).Perm(chunks)

	var next atomic.Int64
	var wg sync.WaitGroup
	results := make([][]pathEval, workers)
	stats := make([]searchStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= chunks {
					return
				}
				s.chunk(order[i], prefixBits, &results[w], &stats[w])
			}
		}(w)
	}
	wg.Wait()
	for i := range stats {
		obsSearchNodes.Add(stats[i].nodes)
		obsSearchEvaluated.Add(stats[i].evaluated)
		obsSearchPruned.Add(stats[i].pruned)
	}

	res := &Result{Method: MethodParallel, Truncated: s.truncated.Load()}
	var evaluated []pathEval
	for _, r := range results {
		evaluated = append(evaluated, r...)
	}
	if len(evaluated) == 0 {
		// Budget too small for even one set: price the mandatory root
		// set so the caller always gets a usable incumbent.
		evaluated = append(evaluated, pathEval{ev: o.evaluate(tracks.RootSet(o.D))})
	}
	best := math.Inf(1)
	for _, pe := range evaluated {
		if pe.ev.Weighted < best {
			best = pe.ev.Weighted
		}
	}
	for _, pe := range evaluated {
		if res.Truncated || pe.pathMax <= best {
			res.All = append(res.All, pe.ev)
		}
	}
	res.Explored = len(res.All)
	res.Pruned = (1 << len(cands)) - res.Explored
	sortEvaluated(res.All)
	res.Best = res.All[0]
	return res, nil
}

// pathEval is one costed full view set plus the largest lower bound on
// the DFS path that reached it (the determinism filter key).
type pathEval struct {
	ev      Evaluated
	pathMax float64
}

// searchStats is one worker's private effort tally, folded into the
// registry when the search completes.
type searchStats struct {
	nodes     int64 // dfs nodes expanded (partial assignments visited)
	evaluated int64 // full view sets costed
	pruned    int64 // subtrees cut by the additive lower bound
}

// parSearch is the state shared by all workers of one Parallel call.
type parSearch struct {
	o     *Optimizer
	cands []*dag.EqNode
	// candLB[i] is candidate i's additive lower-bound contribution,
	// computed once before the workers start (read-only after that).
	candLB []float64
	// incumbent holds math.Float64bits of the best weighted cost seen.
	incumbent atomic.Uint64
	evals     atomic.Int64
	budget    int64
	truncated atomic.Bool
}

func (s *parSearch) bound() float64 {
	return math.Float64frombits(s.incumbent.Load())
}

func (s *parSearch) observe(w float64) {
	for {
		cur := s.incumbent.Load()
		if w >= math.Float64frombits(cur) {
			return
		}
		if s.incumbent.CompareAndSwap(cur, math.Float64bits(w)) {
			return
		}
	}
}

func (s *parSearch) exhausted() bool { return s.evals.Load() >= s.budget }

// setOf builds the view set of a (partial or full) candidate bitmask.
func (s *parSearch) setOf(mask uint64) tracks.ViewSet {
	vs := tracks.RootSet(s.o.D)
	for i, e := range s.cands {
		if mask&(1<<i) != 0 {
			vs[e.ID] = true
		}
	}
	return vs
}

// chunk walks one prefix assignment (the high prefixBits bits spelled by
// the chunk id) and then DFSes the remaining low bits. Bound checks along
// the prefix mirror the DFS 1-branch checks, so a whole chunk is skipped
// as soon as its forced views alone exceed the incumbent.
func (s *parSearch) chunk(c, prefixBits int, out *[]pathEval, st *searchStats) {
	n := len(s.cands)
	mask := uint64(0)
	lb := 0.0
	for k := 0; k < prefixBits; k++ {
		if c&(1<<k) == 0 {
			continue
		}
		mask |= 1 << (n - 1 - k)
		lb += s.candLB[n-1-k]
		if lb > s.bound() {
			st.pruned++
			return
		}
	}
	s.dfs(n-1-prefixBits, mask, lb, out, st)
}

// dfs assigns candidate bits from idx down to 0, 0-branch first. The
// 1-branch extends the additive lower bound (the 0-branch inherits it:
// the forced set is unchanged) and prunes strictly, keeping the incumbent
// a true upper bound on the optimum at all times. The bound only grows
// along a path, so a leaf's lb is also the maximum bound on its path —
// the determinism filter key.
func (s *parSearch) dfs(idx int, mask uint64, lb float64, out *[]pathEval, st *searchStats) {
	if s.exhausted() {
		// An unpruned subtree reached after the budget expired is work
		// the unbudgeted search would have done: genuine truncation.
		// (A search that finishes exactly at the budget never re-enters
		// dfs, so the flag is not a false positive.)
		s.truncated.Store(true)
		return
	}
	st.nodes++
	if idx < 0 {
		if s.evals.Add(1) > s.budget {
			s.truncated.Store(true)
			return
		}
		ev := s.o.evaluate(s.setOf(mask))
		s.observe(ev.Weighted)
		st.evaluated++
		*out = append(*out, pathEval{ev: ev, pathMax: lb})
		return
	}
	s.dfs(idx-1, mask, lb, out, st)
	lb2 := lb + s.candLB[idx]
	if lb2 > s.bound() {
		st.pruned++
		return
	}
	s.dfs(idx-1, mask|1<<idx, lb2, out, st)
}
