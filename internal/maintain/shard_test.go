package maintain_test

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/expr"
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
// at the given shard and worker counts.
func buildSharded(t *testing.T, seed int64, shards, workers int) *maintain.Sharded {
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
		Shards:  shards,
		VS:      vs,
		Workers: workers,
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
			for vi, n := range counts {
				workers := 1 + (trial+vi*3)%8
				variants = append(variants, variant{n, buildSharded(t, seed, n, workers)})
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
// by build; used by the cross-shard merge tests.
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

// randomAggViews generates SUM/COUNT aggregates over Emp grouped by
// DName — spanning views under an EName partitioning, since the group
// key is spread across shards while every Emp row carries EName.
func randomAggViews(rng *rand.Rand, db *corpus.Database) []algebra.Node {
	emp := func() algebra.Node { return algebra.Scan(db.Catalog.MustGet("Emp")) }
	pool := []func() algebra.Node{
		func() algebra.Node { return db.SumOfSals() },
		func() algebra.Node {
			return algebra.NewAggregate([]string{"Emp.DName"},
				[]algebra.AggSpec{{Func: algebra.Count, As: "N"}}, emp())
		},
		func() algebra.Node {
			return algebra.NewAggregate([]string{"Emp.DName"},
				[]algebra.AggSpec{
					{Func: algebra.Sum, Arg: expr.C("Emp.Salary"), As: "S"},
					{Func: algebra.Count, As: "N"},
				}, emp())
		},
		func() algebra.Node {
			return algebra.NewAggregate([]string{"Emp.DName"},
				[]algebra.AggSpec{
					{Func: algebra.Min, Arg: expr.C("Emp.Salary"), As: "Lo"},
					{Func: algebra.Max, Arg: expr.C("Emp.Salary"), As: "Hi"},
				}, emp())
		},
	}
	out := []algebra.Node{pool[0]()}
	for i := 1; i < len(pool); i++ {
		if rng.Intn(2) == 0 {
			out = append(out, pool[i]())
		}
	}
	return out
}

// TestShardedAggregateMerge pins the cross-shard merge stage: under a
// forced EName partitioning the paper's SumOfSals view (and random
// SUM/COUNT/MIN/MAX companions) group by DName, so every group's
// members are spread across shards and each maintained row is combined
// from per-shard partials. The merged result must equal unsharded
// maintenance and recomputation after every window — including
// annihilation windows that delete entire departments (the group must
// die on every shard and vanish from the merged view).
func TestShardedAggregateMerge(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	counts := shardCounts
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			factory := aggFactory(func(db *corpus.Database) []algebra.Node {
				rng := rand.New(rand.NewSource(int64(4100 + trial)))
				return randomAggViews(rng, db)
			})

			// Unsharded baseline over an identical database. The windows
			// are generated against its evolving state, and expected view
			// contents are snapshotted after each window.
			setup, err := factory()
			if err != nil {
				t.Fatal(err)
			}
			vs := tracks.RootSet(setup.D)
			serial, err := maintain.New(setup.D, setup.Store, cost.PageIO{}, vs.Clone())
			if err != nil {
				t.Fatal(err)
			}
			roots := setup.D.Roots
			windows, expected := mergeWindows(t, setup, serial, roots)

			for _, n := range counts {
				n := n
				t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
					s, err := maintain.NewSharded(factory, maintain.ShardedConfig{
						Shards:      n,
						PartitionBy: "EName",
						VS:          vs.Clone(),
						Workers:     1 + trial%4,
					})
					if err != nil {
						t.Fatal(err)
					}
					if n > 1 {
						spanning := 0
						for _, vp := range s.Part.Views {
							if vp.Class == maintain.ShardSpanning {
								spanning++
							}
						}
						if spanning == 0 {
							t.Fatalf("EName partitioning produced no spanning views: %s", s.Part.Describe())
						}
					}
					for w, window := range windows {
						if _, err := s.ApplyBatch(window); err != nil {
							t.Fatalf("window %d: %v", w, err)
						}
						for ri, e := range roots {
							want := expected[w][ri]
							got := s.Contents(e)
							if !rowsEqual(got, want) {
								t.Fatalf("window %d: root %s diverged\nsharded: %v\nserial:  %v", w, e, got, want)
							}
							if drift, err := s.Drift(e); err != nil || drift != "" {
								t.Fatalf("window %d: root %s drift %q err %v", w, e, drift, err)
							}
						}
					}
				})
			}
		})
	}
}

// mergeWindows generates the merge-test workload against the baseline's
// evolving state, applying each window to the serial maintainer as it is
// built and snapshotting the expected contents of every root after each.
// Windows 2 and 3 are the annihilation pair: window 2 deletes every
// employee of two departments (killing their groups on every shard),
// window 3 rebirths one of them. Windows 4 and 5 hire with NULL
// salaries.
func mergeWindows(t *testing.T, setup *maintain.ShardSetup, serial *maintain.Maintainer, roots []*dag.EqNode) ([][]txn.Transaction, [][][]storage.Row) {
	t.Helper()
	empDef := setup.Cat.MustGet("Emp")
	empRel, ok := setup.Store.Get("Emp")
	if !ok {
		t.Fatal("no Emp relation")
	}
	mkTxn := func(name string, kind txn.Kind, d *delta.Delta) txn.Transaction {
		ty := &txn.Type{Name: name, Weight: 1,
			Updates: []txn.RelUpdate{{Rel: "Emp", Kind: kind, Size: float64(d.Size())}}}
		return txn.Transaction{Type: ty, Updates: map[string]*delta.Delta{"Emp": d}}
	}
	var windows [][]txn.Transaction
	var expected [][][]storage.Row
	push := func(w []txn.Transaction) {
		if _, err := serial.ApplyBatch(w); err != nil {
			t.Fatalf("baseline window %d: %v", len(windows), err)
		}
		windows = append(windows, w)
		snap := make([][]storage.Row, len(roots))
		for i, e := range roots {
			snap[i] = sortedContents(serial, e)
		}
		expected = append(expected, snap)
	}

	// Window 0: salary modifications spread over every department.
	mod := delta.New(empDef.Schema)
	for i, row := range empRel.ScanFree() {
		if i%3 != 0 {
			continue
		}
		nt := row.Tuple.Clone()
		nt[2] = value.NewInt(nt[2].I + int64(7*i+13))
		// Clone the old side too: ScanFree rows alias Emp's storage and
		// this delta is replayed into the sharded runs after the baseline
		// has mutated (and recycled) those slots.
		mod.Modify(row.Tuple.Clone(), nt, row.Count)
	}
	push([]txn.Transaction{mkTxn(">Emp", txn.Modify, mod)})

	// Window 1: hires into department 0 and brand-new departments only —
	// departments 1 and 2 are annihilated next and must stay untouched.
	ins := delta.New(empDef.Schema)
	for i := 0; i < 5; i++ {
		dept := corpus.DeptName(0)
		if i >= 3 {
			dept = fmt.Sprintf("dxnew%d", i)
		}
		ins.Insert(value.Tuple{
			value.NewString(fmt.Sprintf("zz_new_%02d", i)),
			value.NewString(dept),
			value.NewInt(int64(90 + 11*i)),
		}, 1)
	}
	push([]txn.Transaction{mkTxn("+Emp", txn.Insert, ins)})

	// Window 2: annihilate two whole departments — every group member
	// goes, across every shard they were spread over.
	del := delta.New(empDef.Schema)
	for _, row := range empRel.ScanFree() {
		dn := row.Tuple[1].S
		if dn == corpus.DeptName(1) || dn == corpus.DeptName(2) {
			del.Delete(row.Tuple.Clone(), row.Count)
		}
	}
	push([]txn.Transaction{mkTxn("-Emp", txn.Delete, del)})

	// Window 3: rebirth one annihilated department with new members.
	reb := delta.New(empDef.Schema)
	for i := 0; i < 3; i++ {
		reb.Insert(value.Tuple{
			value.NewString(fmt.Sprintf("zz_reb_%02d", i)),
			value.NewString(corpus.DeptName(1)),
			value.NewInt(int64(150 + i)),
		}, 1)
	}
	push([]txn.Transaction{mkTxn("+Emp", txn.Insert, reb)})

	// Windows 4 and 5: NULL arguments. Window 4 hires into two new
	// departments: every dxnull salary is NULL (its SUM, MIN and MAX are
	// NULL on every shard), and dxmix has one salary among NULLs (a shard
	// holding only NULL members of it has NULL partials, which the merge
	// must skip). Window 5 hires one more NULL salary into dxnull: a
	// NULL-SUM group that a window gives no non-NULL argument stays NULL.
	hires := func(d *delta.Delta, prefix, dept string, salaries ...value.Value) *delta.Delta {
		for i, sal := range salaries {
			d.Insert(value.Tuple{
				value.NewString(fmt.Sprintf("%s_%02d", prefix, i)),
				value.NewString(dept),
				sal,
			}, 1)
		}
		return d
	}
	null := value.NewNull()
	nulls := hires(delta.New(empDef.Schema), "zz_null", "dxnull", null, null, null, null)
	hires(nulls, "zz_mix", "dxmix", null, null, null, value.NewInt(42), null)
	push([]txn.Transaction{mkTxn("+Emp", txn.Insert, nulls)})
	push([]txn.Transaction{mkTxn("+Emp", txn.Insert, hires(delta.New(empDef.Schema), "zz_null_late", "dxnull", null))})

	return windows, expected
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
// no join condition equates forces Effective=1 with a recorded reason,
// and the resulting single-shard pipeline still maintains correctly.
func TestPartitionFallback(t *testing.T) {
	factory := aggFactory(func(db *corpus.Database) []algebra.Node {
		return []algebra.Node{db.ProblemDept()}
	})
	vsSetup, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(vsSetup.D)
	s, err := maintain.NewSharded(factory, maintain.ShardedConfig{
		Shards:      4,
		PartitionBy: "Budget", // joins equate DName, never Budget
		VS:          vs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Part.Effective != 1 || s.Part.Reason == "" {
		t.Fatalf("expected fallback to 1 shard with a reason, got %s", s.Part.Describe())
	}
	if s.NumShards() != 1 {
		t.Fatalf("fallback built %d shards", s.NumShards())
	}
	for _, e := range s.D.Roots {
		if drift, err := s.Drift(e); err != nil || drift != "" {
			t.Fatalf("fallback drift %q err %v", drift, err)
		}
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
