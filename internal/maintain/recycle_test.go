package maintain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// buildMirrorMode is buildMirror with the store's allocation mode set:
// fresh=true disables the slab arena and slot recycling for every
// relation before any maintained window runs. The corpus seed rows
// predate the flag, which is fine — allocation mode never changes
// relation contents, only where stored tuple bytes live.
func buildMirrorMode(t *testing.T, seed int64, fresh bool) *mirror {
	t.Helper()
	m := buildMirror(t, seed)
	m.db.Store.FreshAlloc = fresh
	return m
}

// modeFactory wraps mirrorFactory so every shard store runs in the
// requested allocation mode.
func modeFactory(seed int64, fresh bool) func() (*maintain.ShardSetup, error) {
	base := mirrorFactory(seed)
	return func() (*maintain.ShardSetup, error) {
		s, err := base()
		if err == nil {
			s.Store.FreshAlloc = fresh
		}
		return s, err
	}
}

// buildShardedMode is buildSharded with the allocation mode threaded
// through to each shard's store.
func buildShardedMode(t *testing.T, seed int64, shards int, fresh bool) *maintain.Sharded {
	t.Helper()
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
	s, err := maintain.NewSharded(modeFactory(seed, fresh), maintain.ShardedConfig{
		Shards: shards,
		VS:     vs,
	})
	if err != nil {
		t.Fatalf("seed %d shards %d fresh %v: %v", seed, shards, fresh, err)
	}
	return s
}

// TestRecycledVsFreshDifferential is the aliasing/leak obligation of
// cross-window recycling: every buffer the pipeline now reuses across
// windows — slab tuple slots, harvested free slots, report rows, delta
// and coalesce scratch — must be invisible in results. The same random
// transaction stream (window sizes 1–64) runs through engines in
// recycled mode and in fresh-alloc mode (slab + slot recycling
// disabled, every stored tuple its own heap clone), unsharded and at
// shards 1 and 4, and every engine must stay byte-identical to a
// fresh-alloc per-transaction reference in contents, root-view
// violation count and recompute-oracle Drift.
func TestRecycledVsFreshDifferential(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	windowSizes := []int{1, 4, 16, 64}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := int64(7600 + trial)
			// Per-transaction fresh-alloc reference: no batching, no
			// recycling — the most conservative allocation behavior.
			ref := buildMirrorMode(t, seed, true)

			type engine struct {
				name  string
				apply func([]txn.Transaction) error
				cont  func(*dag.EqNode) []storage.Row
				viol  func(*dag.EqNode) int64
				drift func(*dag.EqNode) (string, error)
			}
			var engines []engine
			addBatched := func(fresh bool) {
				mode := "recycled"
				if fresh {
					mode = "fresh"
				}
				m := buildMirrorMode(t, seed, fresh)
				engines = append(engines, engine{
					name:  "batched-" + mode,
					apply: func(w []txn.Transaction) error { _, err := m.m.ApplyBatch(w); return err },
					cont:  func(e *dag.EqNode) []storage.Row { return sortedContents(m.m, e) },
					viol:  func(e *dag.EqNode) int64 { return sumCounts(m.m.Contents(e)) },
					drift: func(e *dag.EqNode) (string, error) { return m.m.Drift(e) },
				})
			}
			addSharded := func(fresh bool, shards int) {
				mode := "recycled"
				if fresh {
					mode = "fresh"
				}
				s := buildShardedMode(t, seed, shards, fresh)
				engines = append(engines, engine{
					name:  fmt.Sprintf("sharded-%s/shards%d", mode, shards),
					apply: func(w []txn.Transaction) error { _, err := s.ApplyBatch(w); return err },
					cont:  s.Contents, // already cloned and sorted
					viol:  s.Violations,
					drift: s.Drift,
				})
			}
			addBatched(false)
			addBatched(true)
			addSharded(false, 1)
			addSharded(false, 4)
			addSharded(true, 1)
			addSharded(true, 4)

			txnRng := rand.New(rand.NewSource(seed*13 + 5))
			steps := 0
			for w := 0; w < 4; w++ {
				size := windowSizes[txnRng.Intn(len(windowSizes))]
				var window []txn.Transaction
				for i := 0; i < size; i++ {
					ty, updates := corpus.RandomTxn(txnRng, ref.db, ref.cfg, trial*1000+steps)
					steps++
					if ty == nil {
						continue
					}
					// Per-transaction reference. Apply is a one-transaction ApplyBatch
					// window, so it shares the body under test; the independent check
					// is the recompute oracle (Drift) below.
					if _, err := ref.m.Apply(ty, updates); err != nil {
						t.Fatalf("window %d: reference %s: %v", w, ty.Name, err)
					}
					window = append(window, txn.Transaction{Type: ty, Updates: updates})
				}
				refViolations := sumCounts(ref.m.Contents(ref.checked[0]))
				for _, eng := range engines {
					if err := eng.apply(window); err != nil {
						t.Fatalf("window %d %s: %v", w, eng.name, err)
					}
					for i, e := range ref.checked {
						want := sortedContents(ref.m, e)
						got := eng.cont(e)
						if !rowsEqual(got, want) {
							t.Fatalf("window %d %s: node %d (%s) diverged\ngot:  %v\nwant: %v",
								w, eng.name, i, e, got, want)
						}
					}
					if got := eng.viol(ref.checked[0]); got != refViolations {
						t.Fatalf("window %d %s: violation count diverged: %d, reference %d",
							w, eng.name, got, refViolations)
					}
					if w%2 == 1 {
						for _, e := range ref.checked {
							drift, err := eng.drift(e)
							if err != nil {
								t.Fatal(err)
							}
							if drift != "" {
								t.Fatalf("window %d %s: node %s drifted from oracle (%s)",
									w, eng.name, e, drift)
							}
						}
					}
				}
			}
		})
	}
}

// TestEpochCheckFiresOnEscapedTuple proves the debug epoch check
// actually catches a window-ownership violation: a tuple handed out by
// an arena is deliberately held across the arena's Reset (the window
// fence) and then stored into a relation — the long-lived sink must
// panic rather than retain a pointer into retired window memory.
func TestEpochCheckFiresOnEscapedTuple(t *testing.T) {
	value.EnableEpochChecks(true)
	defer value.EnableEpochChecks(false)
	db := corpus.NewDatabase(corpus.Config{Departments: 2, EmpsPerDept: 2, ADeptsEveryN: 2})
	rel := db.Store.MustGet("Emp")

	var a value.Arena
	escaped := a.CloneTuple(value.Tuple{
		value.NewString("ghost"),
		value.NewString(corpus.DeptName(0)),
		value.NewInt(1),
	})
	a.Reset() // window ends; escaped now points into retired memory

	defer func() {
		if recover() == nil {
			t.Fatal("storing a tuple that escaped its window did not panic under epoch checks")
		}
	}()
	rel.Load([]storage.Row{{Tuple: escaped, Count: 1}})
}
