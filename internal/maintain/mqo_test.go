package maintain_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// The MQO equivalence property: sharing subplan results through the
// per-window memo is invisible in view contents. Three engines must
// agree on every materialized node after every window —
//
//   - shared:   the default pipeline, window memo on;
//   - unshared: DisableMQO, so every probe is answered per-node from
//     storage (the per-query oracle the memo claims to equal);
//   - serial:   per-transaction Apply (windows of one);
//
// and all three must match full recomputation (Drift).

// mqoWindowSizes spans the batching range the tentpole targets.
var mqoWindowSizes = []int{1, 3, 16, 64}

func assertMirrorsAgree(t *testing.T, label string, shared, unshared *mirror) {
	t.Helper()
	for i := range shared.checked {
		es, eu := shared.checked[i], unshared.checked[i]
		if es.ID != eu.ID {
			t.Fatalf("%s: mirrors diverged structurally: node ids %d vs %d", label, es.ID, eu.ID)
		}
		want := sortedContents(unshared.m, eu)
		got := sortedContents(shared.m, es)
		if !rowsEqual(got, want) {
			t.Fatalf("%s: node %s diverged\nmemo-shared: %v\nunshared:    %v", label, es, got, want)
		}
		drift, err := shared.m.Drift(es)
		if err != nil {
			t.Fatal(err)
		}
		if drift != "" {
			t.Fatalf("%s: node %s drifted from full recompute (%s)", label, es, drift)
		}
	}
}

// TestMQOEquivalenceRandom runs the property on random view DAGs with
// random additional view sets, random windows and worker counts 1–8.
func TestMQOEquivalenceRandom(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := int64(21000 + trial)
			serial := buildMirror(t, seed)
			shared := buildMirror(t, seed)
			unshared := buildMirror(t, seed)
			unshared.m.DisableMQO()
			shared.m.Workers = 1 + trial%8
			unshared.m.Workers = 1 + (trial+3)%8

			txnRng := rand.New(rand.NewSource(seed*13 + 1))
			steps := 0
			for w, size := range mqoWindowSizes {
				var window []txn.Transaction
				for i := 0; i < size; i++ {
					ty, updates := corpus.RandomTxn(txnRng, serial.db, serial.cfg, trial*1000+steps)
					steps++
					if ty == nil {
						continue
					}
					// Per-transaction reference. Apply is a one-transaction ApplyBatch
					// window, so it shares the body under test; assertMirrorsAgree's
					// Drift check against recomputation is the independent one.
					if _, err := serial.m.Apply(ty, updates); err != nil {
						t.Fatalf("window %d: serial %s: %v", w, ty.Name, err)
					}
					window = append(window, txn.Transaction{Type: ty, Updates: updates})
				}
				if _, err := shared.m.ApplyBatch(window); err != nil {
					t.Fatalf("window %d shared: %v", w, err)
				}
				if _, err := unshared.m.ApplyBatch(window); err != nil {
					t.Fatalf("window %d unshared: %v", w, err)
				}
				label := fmt.Sprintf("window %d (%d txns)", w, len(window))
				assertMirrorsAgree(t, label, shared, unshared)
				// The serial baseline closes the triangle.
				for i := range serial.checked {
					want := sortedContents(serial.m, serial.checked[i])
					got := sortedContents(shared.m, shared.checked[i])
					if !rowsEqual(got, want) {
						t.Fatalf("%s: node %s: batched+memo diverged from per-transaction",
							label, shared.checked[i])
					}
				}
			}
		})
	}
}

// fig5Mirror is one Figure 5 engine with every non-leaf node
// materialized (the throughput harness's configuration).
type fig5Mirror struct {
	db      *corpus.Database
	m       *maintain.Maintainer
	checked []*dag.EqNode
}

func buildFig5Mirror(t *testing.T, cfg corpus.Figure5Config, workers int) *fig5Mirror {
	t.Helper()
	db := corpus.Figure5Database(cfg)
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	vs := tracks.RootSet(d)
	checked := d.NonLeafEqs()
	for _, e := range checked {
		vs[e.ID] = true
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = workers
	return &fig5Mirror{db: db, m: m, checked: checked}
}

// fig5Stream deterministically generates the hot-item workload (80%
// T price modifies / 20% S inserts) without consulting database state,
// so one stream drives any number of identically-seeded engines.
type fig5Stream struct {
	db    *corpus.Database
	hot   []string
	price map[string]int64
	seq   int
	modT  *txn.Type
	insS  *txn.Type
}

func newFig5Stream(db *corpus.Database, hotN int) *fig5Stream {
	s := &fig5Stream{
		db:    db,
		price: map[string]int64{},
		modT: &txn.Type{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		insS: &txn.Type{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "S", Kind: txn.Insert, Size: 1}}},
	}
	for i := 0; i < hotN; i++ {
		item := fmt.Sprintf("item%03d", i)
		s.hot = append(s.hot, item)
		s.price[item] = int64(10 + i%7) // matches Figure5Database seeding
	}
	return s
}

func (s *fig5Stream) next() txn.Transaction {
	seq := s.seq
	s.seq++
	if seq%5 == 4 {
		d := delta.New(s.db.Catalog.MustGet("S").Schema)
		d.Insert(value.Tuple{
			value.NewString(fmt.Sprintf("mq%06d", seq)),
			value.NewString(s.hot[(seq*3)%len(s.hot)]),
			value.NewInt(int64(1 + seq%5)),
		}, 1)
		return txn.Transaction{Type: s.insS, Updates: map[string]*delta.Delta{"S": d}}
	}
	item := s.hot[seq%len(s.hot)]
	old := s.price[item]
	next := int64(10 + (seq*7+3)%97)
	if next == old {
		next++
	}
	s.price[item] = next
	d := delta.New(s.db.Catalog.MustGet("T").Schema)
	d.Modify(
		value.Tuple{value.NewString(item), value.NewInt(old)},
		value.Tuple{value.NewString(item), value.NewInt(next)},
		1)
	return txn.Transaction{Type: s.modT, Updates: map[string]*delta.Delta{"T": d}}
}

// TestMQOEquivalenceFigure5 runs the property on the paper's Figure 5
// instance under the hot-item workload, and pins the counters: the
// merged batch track poses shared queries, so the memo must record hits
// when enabled and none when disabled.
func TestMQOEquivalenceFigure5(t *testing.T) {
	cfg := corpus.Figure5Config{Items: 24, RPerItem: 3, SPerItem: 3}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			shared := buildFig5Mirror(t, cfg, workers)
			unshared := buildFig5Mirror(t, cfg, 1)
			unshared.m.DisableMQO()
			stream := newFig5Stream(shared.db, 6)

			hits := obs.C("maintain.mqo.memo_hits")
			hits0 := hits.Value()
			for w, size := range mqoWindowSizes {
				window := make([]txn.Transaction, size)
				for i := range window {
					window[i] = stream.next()
				}
				if _, err := shared.m.ApplyBatch(window); err != nil {
					t.Fatalf("window %d shared: %v", w, err)
				}
				sharedDelta := hits.Value() - hits0
				if _, err := unshared.m.ApplyBatch(window); err != nil {
					t.Fatalf("window %d unshared: %v", w, err)
				}
				if got := hits.Value() - hits0; got != sharedDelta {
					t.Fatalf("window %d: DisableMQO engine recorded %d memo hits", w, got-sharedDelta)
				}
				assertMirrorsAgree(t, fmt.Sprintf("window %d (%d txns)", w, size), &mirror{
					m:       shared.m,
					checked: shared.checked,
				}, &mirror{m: unshared.m, checked: unshared.checked})
			}
			if got := hits.Value() - hits0; got <= 0 {
				t.Fatalf("merged Figure 5 track poses shared queries, but memo recorded %d hits", got)
			}
		})
	}
}

// TestMQOEquivalenceSumOfSals runs the property on Example 1.1's
// ProblemDeptAlt, whose rep tree routes through the SumOfSals
// aggregate — the paper's canonical additional view.
func TestMQOEquivalenceSumOfSals(t *testing.T) {
	build := func(workers int) (*corpus.Database, *maintain.Maintainer, []*dag.EqNode) {
		db := corpus.NewDatabase(corpus.Config{Departments: 6, EmpsPerDept: 4, ADeptsEveryN: 2})
		d, err := dag.FromTree(db.ProblemDeptAlt())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Expand(rules.Default(), 300); err != nil {
			t.Fatal(err)
		}
		vs := tracks.RootSet(d)
		checked := d.NonLeafEqs()
		for _, e := range checked {
			vs[e.ID] = true
		}
		m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		return db, m, checked
	}
	cfg := corpus.Config{Departments: 6, EmpsPerDept: 4, ADeptsEveryN: 2}
	// The generator engine applies each transaction as it is drawn, so
	// window deltas chain (a modify's old tuple is the previous new one)
	// and the window composes validly against its start state.
	serialDB, serialM, _ := build(1)
	_, sharedM, checked := build(4)
	_, unsharedM, _ := build(1)
	unsharedM.DisableMQO()

	txnRng := rand.New(rand.NewSource(31337))
	steps := 0
	for w, size := range mqoWindowSizes {
		var window []txn.Transaction
		for i := 0; i < size; i++ {
			ty, updates := corpus.RandomTxn(txnRng, serialDB, cfg, steps)
			steps++
			if ty == nil {
				continue
			}
			// Apply (a one-transaction window) only advances the generator's
			// database; assertMirrorsAgree checks both engines against Drift.
			if _, err := serialM.Apply(ty, updates); err != nil {
				t.Fatalf("window %d: serial %s: %v", w, ty.Name, err)
			}
			window = append(window, txn.Transaction{Type: ty, Updates: updates})
		}
		if _, err := sharedM.ApplyBatch(window); err != nil {
			t.Fatalf("window %d shared: %v", w, err)
		}
		if _, err := unsharedM.ApplyBatch(window); err != nil {
			t.Fatalf("window %d unshared: %v", w, err)
		}
		assertMirrorsAgree(t, fmt.Sprintf("window %d (%d txns)", w, len(window)),
			&mirror{m: sharedM, checked: checked},
			&mirror{m: unsharedM, checked: checked})
	}
}
