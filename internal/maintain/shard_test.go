package maintain_test

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// shardCounts are the shard counts under test.
var shardCounts = []int{1, 2, 4, 8}

// mirrorFactory returns a shard factory that rebuilds the exact
// database + expanded DAG of buildMirror(seed): the rng stream is
// re-consumed identically per call, so every shard's DAG carries the
// same equivalence-node IDs (NewSharded verifies this).
func mirrorFactory(seed int64) func() (*maintain.ShardSetup, error) {
	return func() (*maintain.ShardSetup, error) {
		rng := rand.New(rand.NewSource(seed))
		cfg := corpus.Config{
			Departments:  3 + rng.Intn(5),
			EmpsPerDept:  2 + rng.Intn(3),
			ADeptsEveryN: 2,
		}
		db := corpus.NewDatabase(cfg)
		view := corpus.RandomView(rng, db)
		d, err := dag.FromTree(view)
		if err != nil {
			return nil, err
		}
		if _, err := d.Expand(rules.Default(), 300); err != nil {
			return nil, err
		}
		return &maintain.ShardSetup{D: d, Cat: db.Catalog, Store: db.Store}, nil
	}
}

// buildSharded is the sharded twin of buildMirror: same seed, same
// view set, same checked nodes, but maintained by a Sharded pipeline
// at the given shard count.
func buildSharded(t *testing.T, seed int64, shards int) *maintain.Sharded {
	t.Helper()
	// Re-derive the view set with buildMirror's exact rng consumption,
	// so serial.checked[i].ID indexes the same logical node here.
	rng := rand.New(rand.NewSource(seed))
	cfg := corpus.Config{
		Departments:  3 + rng.Intn(5),
		EmpsPerDept:  2 + rng.Intn(3),
		ADeptsEveryN: 2,
	}
	db := corpus.NewDatabase(cfg)
	view := corpus.RandomView(rng, db)
	d, err := dag.FromTree(view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 300); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	for _, e := range d.NonLeafEqs() {
		if !d.IsRoot(e) && rng.Intn(2) == 0 {
			vs[e.ID] = true
		}
	}
	s, err := maintain.NewSharded(mirrorFactory(seed), maintain.ShardedConfig{
		Shards: shards,
		VS:     vs,
	})
	if err != nil {
		t.Fatalf("seed %d shards %d: %v", seed, shards, err)
	}
	return s
}

// TestShardInvariance is the headline correctness obligation of the
// sharded pipeline: for random views, random view sets and random
// transaction windows, the maintained contents of every materialized
// node — and the integrity-constraint verdict read off the root — are
// byte-identical at every shard count to per-transaction unsharded
// maintenance, and agree with the recompute oracle over the union of
// the shard bases.
func TestShardInvariance(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	counts := shardCounts
	windowSizes := []int{1, 2, 5, 16, 64}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := int64(7300 + trial)
			serial := buildMirror(t, seed)
			type variant struct {
				shards int
				s      *maintain.Sharded
			}
			var variants []variant
			for _, n := range counts {
				variants = append(variants, variant{n, buildSharded(t, seed, n)})
			}
			for _, v := range variants {
				if v.shards > 1 && v.s.Part.Effective == 1 && v.s.Part.Reason == "" {
					t.Fatalf("shards=%d fell back without a reason", v.shards)
				}
				t.Logf("shards=%d: %s (built %d)", v.shards, v.s.Part.Describe(), v.s.NumShards())
			}

			txnRng := rand.New(rand.NewSource(seed*17 + 3))
			steps := 0
			for w := 0; w < 4; w++ {
				size := windowSizes[txnRng.Intn(len(windowSizes))]
				var window []txn.Transaction
				for i := 0; i < size; i++ {
					ty, updates := corpus.RandomTxn(txnRng, serial.db, serial.cfg, trial*1000+steps)
					steps++
					if ty == nil {
						continue
					}
					// Per-transaction reference. Apply is a one-transaction ApplyBatch
					// window, so it shares the body under test; the independent check
					// is the recompute oracle (Drift) below.
					if _, err := serial.m.Apply(ty, updates); err != nil {
						t.Fatalf("window %d: serial %s: %v", w, ty.Name, err)
					}
					window = append(window, txn.Transaction{Type: ty, Updates: updates})
				}
				serialViolations := sumCounts(serial.m.Contents(serial.checked[0]))
				for _, v := range variants {
					rep, err := v.s.ApplyBatch(window)
					if err != nil {
						t.Fatalf("window %d shards %d: %v", w, v.shards, err)
					}
					if rep.Size != len(window) {
						t.Fatalf("window %d shards %d: report size %d, want %d", w, v.shards, rep.Size, len(window))
					}
					for i, e := range serial.checked {
						want := sortedContents(serial.m, e)
						got := v.s.Contents(e)
						if !rowsEqual(got, want) {
							t.Fatalf("window %d shards %d (%s): node %d (%s) diverged\nsharded: %v\nserial:  %v",
								w, v.shards, v.s.Part.Describe(), i, e, got, want)
						}
					}
					if got := v.s.Violations(serial.checked[0]); got != serialViolations {
						t.Fatalf("window %d shards %d: IC verdict diverged: %d violations, serial %d",
							w, v.shards, got, serialViolations)
					}
					if w%2 == 1 {
						for _, e := range serial.checked {
							drift, err := v.s.Drift(e)
							if err != nil {
								t.Fatal(err)
							}
							if drift != "" {
								t.Fatalf("window %d shards %d: node %s drifted from oracle (%s)",
									w, v.shards, e, drift)
							}
						}
					}
				}
			}
		})
	}
}

func sumCounts(rows []storage.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.Count
	}
	return n
}

// aggFactory builds a fixed corporate database whose views are chosen
// by build.
func aggFactory(build func(db *corpus.Database) []algebra.Node) func() (*maintain.ShardSetup, error) {
	return func() (*maintain.ShardSetup, error) {
		cfg := corpus.Config{Departments: 6, EmpsPerDept: 4, ADeptsEveryN: 2}
		db := corpus.NewDatabase(cfg)
		d, err := dag.FromTrees(build(db)...)
		if err != nil {
			return nil, err
		}
		if _, err := d.Expand(rules.Default(), 200); err != nil {
			return nil, err
		}
		return &maintain.ShardSetup{D: d, Cat: db.Catalog, Store: db.Store}, nil
	}
}

// fuzz routing substrate: the paper's corporate schema + ProblemDept
// DAG, analyzed once (read-only; routers are built per execution).
var routeFuzzOnce struct {
	sync.Once
	d  *dag.DAG
	vs tracks.ViewSet
}

func routeFuzzDAG(tb testing.TB) (*dag.DAG, tracks.ViewSet) {
	routeFuzzOnce.Do(func() {
		db := corpus.NewDatabase(corpus.Config{Departments: 3, EmpsPerDept: 3, ADeptsEveryN: 2})
		d, err := dag.FromTree(db.ProblemDept())
		if err != nil {
			panic(err)
		}
		if _, err := d.Expand(rules.Default(), 200); err != nil {
			panic(err)
		}
		routeFuzzOnce.d = d
		routeFuzzOnce.vs = tracks.RootSet(d)
	})
	return routeFuzzOnce.d, routeFuzzOnce.vs
}

// FuzzShardRoute pins the router contract: routing is deterministic
// and stable across router instances, total (every tuple lands on
// exactly one shard in [0, n)), and re-partitioning the same bag at a
// different shard count yields an equivalent bag — no tuple is lost,
// duplicated or split. Seeds derive from testdata/corporate.sql.
func FuzzShardRoute(f *testing.F) {
	if data, err := os.ReadFile("../../testdata/corporate.sql"); err == nil {
		strs := regexp.MustCompile(`'([^']*)'`).FindAllStringSubmatch(string(data), -1)
		nums := regexp.MustCompile(`\b\d+\b`).FindAllString(string(data), -1)
		for i := 0; i+1 < len(strs) && i < 16; i += 2 {
			sal := int64(100)
			if i/2 < len(nums) {
				if v, err := strconv.ParseInt(nums[i/2], 10, 64); err == nil {
					sal = v
				}
			}
			f.Add(strs[i][1], strs[i+1][1], sal, uint8(i+1), uint8(2*i+3))
		}
	}
	f.Add("e0000_00", "d0000", int64(100), uint8(4), uint8(8))
	f.Add("", "", int64(0), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, name, dname string, sal int64, a, b uint8) {
		d, vs := routeFuzzDAG(t)
		na := 1 + int(a)%8
		nb := 1 + int(b)%8
		pa := maintain.AnalyzePartitioning(d, vs, "DName", na)
		if pa.Reason != "" {
			t.Fatalf("ProblemDept must partition on DName: %s", pa.Reason)
		}
		if pa.Effective != na {
			t.Fatalf("effective %d, want %d", pa.Effective, na)
		}
		tuple := value.Tuple{value.NewString(name), value.NewString(dname), value.NewInt(sal)}
		ra := pa.NewRouter()
		s1 := ra.Route("Emp", tuple)
		if s1 < 0 || s1 >= na {
			t.Fatalf("route %d out of [0,%d)", s1, na)
		}
		if s2 := ra.Route("Emp", tuple); s2 != s1 {
			t.Fatalf("unstable route: %d then %d", s1, s2)
		}
		if s3 := pa.NewRouter().Route("Emp", tuple); s3 != s1 {
			t.Fatalf("router instances disagree: %d vs %d", s1, s3)
		}
		// Same partition value ⇒ same shard, whatever the rest holds.
		alt := value.Tuple{value.NewString(name + "x"), value.NewString(dname), value.NewInt(sal + 1)}
		if sAlt := ra.Route("Emp", alt); sAlt != s1 {
			t.Fatalf("partition column ignored: %q routed to %d and %d", dname, s1, sAlt)
		}
		// Unknown relations route by whole tuple and stay total.
		if s := ra.Route("NoSuchRel", tuple); s < 0 || s >= na {
			t.Fatalf("whole-tuple route %d out of [0,%d)", s, na)
		}
		// Re-partition equivalence: a derived bag splits into exactly
		// one shard per tuple at every shard count, and the shard
		// bags union back to the original bag.
		bag := make([]value.Tuple, 0, 8)
		for i := 0; i < 8; i++ {
			bag = append(bag, value.Tuple{
				value.NewString(fmt.Sprintf("%s_%d", name, i)),
				value.NewString(fmt.Sprintf("%s_%d", dname, i%3)),
				value.NewInt(sal + int64(i)),
			})
		}
		for _, n := range []int{na, nb} {
			p := maintain.AnalyzePartitioning(d, vs, "DName", n)
			r := p.NewRouter()
			var enc value.KeyEncoder
			orig := map[string]int{}
			union := map[string]int{}
			perShard := make([]int, n)
			for _, tp := range bag {
				orig[string(enc.Key(tp))]++
				s := r.Route("Emp", tp)
				if s < 0 || s >= n {
					t.Fatalf("n=%d: route %d out of range", n, s)
				}
				perShard[s]++
				union[string(enc.Key(tp))]++
			}
			total := 0
			for _, c := range perShard {
				total += c
			}
			if total != len(bag) {
				t.Fatalf("n=%d: %d tuples routed, want %d", n, total, len(bag))
			}
			for k, c := range orig {
				if union[k] != c {
					t.Fatalf("n=%d: bag not preserved at key %x", n, k)
				}
			}
		}
	})
}

// TestPartitionFallback pins the analysis fallback: a partition column
// no join condition equates, or one an aggregate does not group on,
// forces Effective=1 with a recorded reason, and the resulting
// single-shard pipeline still maintains correctly.
func TestPartitionFallback(t *testing.T) {
	for _, tc := range []struct {
		partitionBy string
		view        func(*corpus.Database) algebra.Node
		reason      string // the recorded reason must contain it
	}{
		// ProblemDept's joins equate DName, never Budget.
		{"Budget", (*corpus.Database).ProblemDept, "no join condition equates"},
		// SumOfSals groups by DName, so under EName its groups span shards.
		{"EName", (*corpus.Database).SumOfSals, "aggregate grouped by [Emp.DName]"},
	} {
		factory := aggFactory(func(db *corpus.Database) []algebra.Node {
			return []algebra.Node{tc.view(db)}
		})
		vsSetup, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		vs := tracks.RootSet(vsSetup.D)
		s, err := maintain.NewSharded(factory, maintain.ShardedConfig{
			Shards:      4,
			PartitionBy: tc.partitionBy,
			VS:          vs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.Part.Effective != 1 || !strings.Contains(s.Part.Reason, tc.reason) {
			t.Fatalf("%s: expected fallback to 1 shard with a reason naming %q, got %s",
				tc.partitionBy, tc.reason, s.Part.Describe())
		}
		if s.NumShards() != 1 {
			t.Fatalf("%s: fallback built %d shards", tc.partitionBy, s.NumShards())
		}
		for _, e := range s.D.Roots {
			if drift, err := s.Drift(e); err != nil || drift != "" {
				t.Fatalf("%s: fallback drift %q err %v", tc.partitionBy, drift, err)
			}
		}
		t.Logf("%s", s.Part.Describe())
	}
}

// TestChoosePartitionColumn pins the auto-choice: the corporate DAG's
// only join-compatible column is DName.
func TestChoosePartitionColumn(t *testing.T) {
	d, vs := routeFuzzDAG(t)
	if col := maintain.ChoosePartitionColumn(d, vs); col != "DName" {
		t.Fatalf("chose %q, want DName", col)
	}
}
