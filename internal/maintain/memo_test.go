package maintain

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/tracks"
	"repro/internal/value"
)

// TestMemoSharesEqualFingerprints: the probe memo keys a query by the
// ordinal of its target's fingerprint, so two classes with one
// fingerprint share one entry — the second asking is a hit, answered
// with the first's rows — while a class with another fingerprint gets
// an ordinal of its own. A DAG never holds two classes with one
// fingerprint (it merges them), so the twin is a copy of a class under
// another ID, which is what a second class of the same expression is.
func TestMemoSharesEqualFingerprints(t *testing.T) {
	db := corpus.Figure5Database(corpus.Figure5Config{Items: 12, RPerItem: 3, SPerItem: 3})
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	m, err := New(d, db.Store, cost.PageIO{}, tracks.RootSet(d))
	if err != nil {
		t.Fatal(err)
	}
	// A join of base relations, not materialized: answered by evaluation.
	var target *dag.EqNode
	var cols []string
	for _, e := range d.NonLeafEqs() {
		op := e.Ops[0]
		if j, ok := op.Template.(*algebra.Join); ok && op.Children[0].IsLeaf() && op.Children[1].IsLeaf() {
			target, cols = e, j.LeftCols()
			break
		}
	}
	if target == nil {
		t.Fatal("no join of two base relations in the Figure 5 DAG")
	}
	twin := *target
	twin.ID = len(d.Eqs()) + 7
	if d.Fingerprint(&twin) != d.Fingerprint(target) {
		t.Fatal("the twin's fingerprint differs")
	}
	ord := m.fingerprintOrdinal(target)
	if got := m.fingerprintOrdinal(&twin); got != ord {
		t.Fatalf("twin ordinal %d, want %d", got, ord)
	}
	if got := m.fingerprintOrdinal(d.Root); got == ord {
		t.Fatalf("the root shares ordinal %d with %s", got, target)
	}

	key := value.Tuple{value.NewString("item000")}
	hits := obs.C("maintain.mqo.memo_hits")
	for _, c := range []struct {
		name  string
		noMQO bool
		hits  int64
	}{{"memo", false, 1}, {"inert memo", true, 0}} {
		m.disableMQO = c.noMQO
		w := m.newWindowMemo()
		h0 := hits.Value()
		first, err := m.answerQuery(target, cols, key, w)
		if err != nil {
			t.Fatal(err)
		}
		second, err := m.answerQuery(&twin, cols, key, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := hits.Value() - h0; got != c.hits {
			t.Errorf("%s: %d hits asking the twin, want %d", c.name, got, c.hits)
		}
		if len(first) == 0 || len(first) != len(second) {
			t.Errorf("%s: %d rows, then %d from the twin", c.name, len(first), len(second))
		}
		if want := int(c.hits); w.rows.Len() != want {
			t.Errorf("%s: %d memo entries, want %d", c.name, w.rows.Len(), want)
		}
	}
}
