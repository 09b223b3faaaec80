package mvmaint_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	mvmaint "repro"
)

// TestStatisticsTakenWhenRead: Exec no longer recomputes statistics per
// statement, so whoever costs a view set must see the data as it is at
// that moment. Build after a row-at-a-time load sees the loaded rows;
// Reoptimize after maintained transactions sees what they left behind —
// here 64 extra sales piled on each of 4 items, which turns the uniform
// corpus (of the two sets without the factorized partial, root alone
// is cheaper) into the skewed one of testdata/fig5_skew.sql (the
// aggregate under the HAVING pays for itself). Since the factorized push
// the chosen set is the partial γ[S.Item; SUM(Quantity), COUNT(*)](R⋈S)
// and the root on both: a price change is one probe on the partial
// whatever the fan-out, so the skew no longer swaps the choice, and the
// flip shows in the ranking of the two sets instead.
func TestStatisticsTakenWhenRead(t *testing.T) {
	sql, err := os.ReadFile("testdata/fig5_skew.sql")
	if err != nil {
		t.Fatal(err)
	}
	// The file's DDL, then its uniform part row by row, one statement per
	// Exec call; the extra sales are held back.
	db := mvmaint.Open()
	db.MustExec(string(sql[:strings.Index(string(sql), "INSERT INTO")]))
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO T VALUES ('item%03d', %d)", i, 10+i%7))
		for j := 0; j < 4; j++ {
			db.MustExec(fmt.Sprintf("INSERT INTO R VALUES ('r%03d_%d', 'item%03d')", i, j, i))
		}
		for j := 0; j < 5; j++ {
			db.MustExec(fmt.Sprintf("INSERT INTO S VALUES ('s%03d_%d', 'item%03d', %d)", i, j, i, 1+(i+j)%5))
		}
	}
	var extra []string
	for k := 0; k < skewHot*skewExtra; k++ {
		extra = append(extra, fmt.Sprintf("('x%07d', 'item%03d', %d)", k, k/skewExtra, 1+k%5))
	}
	cfg := mvmaint.Config{Workload: skewTypes(), Method: mvmaint.Exhaustive}
	sys, err := db.Build([]string{"Revenue"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := db.Catalog.MustGet("S")
	if s.Stats.Card != 1000 || s.Stats.Distinct["Item"] != 200 || s.Stats.Fanout["Item"] != 5 {
		t.Fatalf("Build costed S at Card %v, Distinct[Item] %v, Fanout[Item] %v; loaded 1000 rows, 5 per item",
			s.Stats.Card, s.Stats.Distinct["Item"], s.Stats.Fanout["Item"])
	}
	if got := sys.ViewSet.Key(); got != "{N7,N10}" {
		t.Fatalf("on uniform data Build chose %s, want the factorized partial ({N7,N10})", got)
	}
	if root, agg := estimate(t, sys, "{N7}"), estimate(t, sys, "{N5,N7}"); root >= agg {
		t.Errorf("on uniform data the root alone is estimated at %.4g, the aggregate beside it at %.4g; want the root cheaper", root, agg)
	}

	for _, row := range extra {
		if _, err := sys.Execute("INSERT INTO S VALUES " + row); err != nil {
			t.Fatal(err)
		}
	}
	// Once windows have run Explain sets the measurement beside the
	// estimate, per type as the transactions named themselves.
	if ex := sys.Explain(); !strings.Contains(ex, "measured page I/O per transaction") ||
		!strings.Contains(ex, "  insert:S: query ") || !strings.Contains(ex, "over 256 txns") {
		t.Errorf("Explain after 256 inserts lacks the measured split:\n%s", ex)
	}
	changed, err := sys.Reoptimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := (196*25.0 + 4*69*69) / 1256
	if s.Stats.Card != 1256 || s.Stats.Fanout["Item"] != want {
		t.Errorf("Reoptimize costed S at Card %v, Fanout[Item] %v; the windows left 1256 rows, fan-out %v",
			s.Stats.Card, s.Stats.Fanout["Item"], want)
	}
	if got := sys.ViewSet.Key(); changed || got != "{N7,N10}" {
		t.Errorf("Reoptimize changed=%v, view set %s; want the factorized partial kept ({N7,N10})", changed, got)
	}
	if root, agg := estimate(t, sys, "{N7}"), estimate(t, sys, "{N5,N7}"); agg >= root {
		t.Errorf("on skewed data the root alone is estimated at %.4g, the aggregate beside it at %.4g; want the aggregate cheaper", root, agg)
	}
	for _, e := range sys.DAG.NonLeafEqs() {
		if sys.ViewSet[e.ID] {
			if drift, err := sys.M.Drift(e); err != nil || drift != "" {
				t.Errorf("view %s after Reoptimize: %s %v", e, drift, err)
			}
		}
	}
	ex := sys.Explain()
	for _, want := range []string{"chosen view set: {N7,N10}", "fanout=", "(runner-up {"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain lacks %q:\n%s", want, ex)
		}
	}
}

// estimate is the weighted cost the system's last optimization gave the
// view set with the given key.
func estimate(t *testing.T, sys *mvmaint.System, key string) float64 {
	t.Helper()
	for _, ev := range sys.Decision.All {
		if ev.Set.Key() == key {
			return ev.Weighted
		}
	}
	t.Fatalf("the decision did not cost %s", key)
	return 0
}
