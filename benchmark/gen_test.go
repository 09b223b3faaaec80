package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func fig5Stream(seed int64, n int) [32]byte {
	g, h := newFig5Gen(seed), sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, g.next())
	}
	return [32]byte(h.Sum(nil))
}

func corpStream(seed int64, n int) [32]byte {
	g, h := newCorpGen(seed), sha256.New()
	for i := 0; i < n; i++ {
		op := g.next()
		fmt.Fprintln(h, op.sql, op.rollback, op.total)
	}
	for i := 0; i < n/4; i++ {
		for _, op := range g.request() {
			fmt.Fprintln(h, op.sql, op.rollback, op.total)
		}
	}
	return [32]byte(h.Sum(nil))
}

func TestStreamsDependOnTheSeedAlone(t *testing.T) {
	if fig5Stream(7, 5000) != fig5Stream(7, 5000) {
		t.Error("fig5: same seed, different stream")
	}
	if fig5Stream(7, 5000) == fig5Stream(8, 5000) {
		t.Error("fig5: different seeds, same stream")
	}
	if corpStream(7, 5000) != corpStream(7, 5000) {
		t.Error("corp: same seed, different stream")
	}
	if corpStream(7, 5000) == corpStream(8, 5000) {
		t.Error("corp: different seeds, same stream")
	}
}

func TestFig5StreamIsStationary(t *testing.T) {
	g := newFig5Gen(3)
	kinds := map[fig5Kind]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		op := g.next()
		kinds[op.kind]++
		if op.kind == fig5Modify && op.old == op.new {
			t.Fatalf("price change to the same price: %v", op)
		}
		for item, q := range g.sales {
			if len(q) != fig5ExtraSales && len(q) != fig5ExtraSales+1 {
				t.Fatalf("after %d transactions item %d holds %d benchmark-owned sales", i, item, len(q))
			}
		}
	}
	if share := float64(kinds[fig5Modify]) / n; share < 0.79 || share > 0.81 {
		t.Errorf("price changes are %.3f of the stream, want 0.80", share)
	}
	if d := kinds[fig5Insert] - kinds[fig5Delete]; d < 0 || d > 1 {
		t.Errorf("%d inserts against %d deletes", kinds[fig5Insert], kinds[fig5Delete])
	}
}

func TestCorpStreamMixAndModel(t *testing.T) {
	g := newCorpGen(3)
	kinds := map[corpKind]int{}
	rolledBack := 0
	const n = 200000
	for i := 0; i < n; i++ {
		op := g.next()
		kinds[op.kind]++
		if op.rollback {
			rolledBack++
		}
		if op.kind == corpRaise && !op.rollback {
			t.Fatalf("a raise built to break the budget was expected to commit: %s", op.sql)
		}
		if n := len(g.extras); n != corpExtras && n != corpExtras+1 {
			t.Fatalf("after %d statements %d benchmark-owned employees", i, n)
		}
	}
	salary := kinds[corpSalary] + kinds[corpRaise]
	if share := float64(salary) / n; share < 0.69 || share > 0.71 {
		t.Errorf("salary updates are %.3f of the stream, want 0.70", share)
	}
	if share := float64(kinds[corpRaise]) / float64(salary); share < 0.015 || share > 0.025 {
		t.Errorf("budget-breaking raises are %.4f of salary updates, want 0.02", share)
	}
	if share := float64(kinds[corpBudget]) / n; share < 0.09 || share > 0.11 {
		t.Errorf("budget updates are %.3f of the stream, want 0.10", share)
	}
	if d := kinds[corpHire] - kinds[corpFire]; d < 0 || d > 1+rolledBack {
		t.Errorf("%d hires against %d fires", kinds[corpHire], kinds[corpFire])
	}
	for d := range g.sum {
		var sum int64
		for j := 0; j < corpEmpPerDept; j++ {
			sum += g.salary[d*corpEmpPerDept+j]
		}
		for _, x := range g.extras {
			if x.dept == d {
				sum += x.salary
			}
		}
		if sum != g.sum[d] {
			t.Fatalf("department %d: model total %d, salaries add up to %d", d, g.sum[d], sum)
		}
		if g.sum[d] > g.budget[d] {
			t.Fatalf("department %d is over budget in the model", d)
		}
	}
}

func TestCorpRequestEndsInOneUnambiguousChange(t *testing.T) {
	g := newCorpGen(5)
	for i := 0; i < 20000; i++ {
		ops := g.request()
		last := ops[3]
		if last.kind != corpSalary || last.rollback {
			t.Fatalf("last statement %q: kind %d, rollback %v", last.sql, last.kind, last.rollback)
		}
		for _, op := range ops[:3] {
			if op.dept == last.dept {
				t.Fatalf("last statement shares department %d with %q", last.dept, op.sql)
			}
		}
		if last.total != g.sum[last.dept] {
			t.Fatalf("last statement announces total %d, model holds %d", last.total, g.sum[last.dept])
		}
	}
}
