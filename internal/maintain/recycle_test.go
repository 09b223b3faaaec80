package maintain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/maintain"
	"repro/internal/storage"
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

// TestRecycledVsFreshDifferential is the aliasing/leak obligation of
// cross-window recycling: every buffer the pipeline now reuses across
// windows — slab tuple slots, harvested free slots, report rows, delta
// and coalesce scratch — must be invisible in results. The same random
// transaction stream (window sizes 1–64) runs through engines in
// recycled mode and in fresh-alloc mode (slab + slot recycling
// disabled, every stored tuple its own heap clone), and both engines
// must stay byte-identical to a fresh-alloc per-transaction reference
// in contents, root-view violation count and recompute-oracle Drift.
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

			engines := []struct {
				name string
				m    *maintain.Maintainer
			}{
				{"batched-recycled", buildMirrorMode(t, seed, false).m},
				{"batched-fresh", buildMirrorMode(t, seed, true).m},
			}

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
					if _, err := eng.m.ApplyBatch(window); err != nil {
						t.Fatalf("window %d %s: %v", w, eng.name, err)
					}
					for i, e := range ref.checked {
						want := sortedContents(ref.m, e)
						got := sortedContents(eng.m, e)
						if !rowsEqual(got, want) {
							t.Fatalf("window %d %s: node %d (%s) diverged\ngot:  %v\nwant: %v",
								w, eng.name, i, e, got, want)
						}
					}
					if got := sumCounts(eng.m.Contents(ref.checked[0])); got != refViolations {
						t.Fatalf("window %d %s: violation count diverged: %d, reference %d",
							w, eng.name, got, refViolations)
					}
					if w%2 == 1 {
						for _, e := range ref.checked {
							drift, err := eng.m.Drift(e)
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

func sumCounts(rows []storage.Row) int64 {
	var n int64
	for _, r := range rows {
		n += r.Count
	}
	return n
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
