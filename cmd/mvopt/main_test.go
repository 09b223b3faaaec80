package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/txn"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestSkewDecisionGolden pins the whole decision on the skewed Figure 5
// corpus (the command in testdata/fig5_skew.sql's header, which CI also
// runs): the chosen set must hold the factorized partial
// γ[S.Item; SUM(Quantity), COUNT(*)](R ⋈ S), which turns a price change
// into one probe, and the estimates, fan-outs and ranking are compared
// with the committed report. Run with -update after an intended change.
func TestSkewDecisionGolden(t *testing.T) {
	sys, err := optimize("../../testdata/fig5_skew.sql", "Revenue", "exhaustive",
		[]string{"modify:T:Price:1:0.8", "insert:S:1:0.1", "delete:S:1:0.1"})
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Explain()
	if !strings.Contains(got, "additional: N10 = Aggregate[SUM(Quantity) AS sum(Quantity)@S:Item, COUNT(*) AS count(*)@S:Item BY S.Item]") {
		t.Errorf("the chosen view set lacks the factorized SUM(Quantity), COUNT(*) BY S.Item partial:\n%s", got)
	}
	const golden = "testdata/fig5_skew.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("decision differs from %s (rerun with -update if intended):\n%s", golden, got)
	}
}

func TestParseTxn(t *testing.T) {
	ty, err := parseTxn("modify:Emp:Salary:1:2")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Weight != 2 || len(ty.Updates) != 1 {
		t.Fatalf("parsed = %+v", ty)
	}
	u := ty.Updates[0]
	if u.Rel != "Emp" || u.Kind != txn.Modify || u.Size != 1 ||
		len(u.Cols) != 1 || u.Cols[0] != "Salary" {
		t.Errorf("update = %+v", u)
	}

	ty, err = parseTxn("modify:Emp:Salary+DName:2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(ty.Updates[0].Cols) != 2 || ty.Updates[0].Size != 2 || ty.Weight != 0.5 {
		t.Errorf("multi-col parse = %+v", ty.Updates[0])
	}

	ty, err = parseTxn("insert:ADepts:1:3")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Updates[0].Kind != txn.Insert || ty.Updates[0].Size != 1 || ty.Weight != 3 {
		t.Errorf("insert parse = %+v", ty)
	}

	ty, err = parseTxn("delete:Emp:5:1")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Updates[0].Kind != txn.Delete || ty.Updates[0].Size != 5 {
		t.Errorf("delete parse = %+v", ty)
	}
}

func TestParseTxnErrors(t *testing.T) {
	bad := []string{
		"",
		"modify:Emp",       // too short
		"modify:Emp:1:1",   // missing cols for modify
		"upsert:Emp:1:1",   // unknown kind
		"insert:Emp:abc:1", // bad size
		"insert:Emp:1:xyz", // bad weight
	}
	for _, spec := range bad {
		if _, err := parseTxn(spec); err == nil {
			t.Errorf("no error for %q", spec)
		}
	}
}
