package maintain_test

import (
	"fmt"
	"math/rand"
	"runtime"
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

// TestPlanScratchBounded: compiled steps and their scratch belong to
// operation nodes, not to window shapes. A Figure 5 maintainer (root
// materialized only, so the aggregate takes the full-group path) is fed
// 500 windows whose net |ΔS| and |ΔT| vary — every distinct pair is a
// new merged-type name, hence a new track plan — and must end with one
// compiled step per operation node its tracks crossed, and with a heap
// that stopped growing once the scratch reached its high-water mark.
func TestPlanScratchBounded(t *testing.T) {
	const hot, fanOut = 8, 24
	db := corpus.Figure5Database(corpus.Figure5Config{Items: 40, RPerItem: 4, SPerItem: fanOut})
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		t.Fatal(err)
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, tracks.RootSet(d))
	if err != nil {
		t.Fatal(err)
	}
	modT := &txn.Type{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
		{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}}
	insS := &txn.Type{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
		{Rel: "S", Kind: txn.Insert, Size: 1}}}
	delS := &txn.Type{Name: "-S", Weight: 1, Updates: []txn.RelUpdate{
		{Rel: "S", Kind: txn.Delete, Size: 1}}}
	sSchema, tSchema := db.Catalog.MustGet("S").Schema, db.Catalog.MustGet("T").Schema

	// The generator's own model: prices of the hot items and the sales it
	// has inserted and not yet deleted (oldest first), so fan-out stays put.
	rng := rand.New(rand.NewSource(15))
	price := make([]int64, hot)
	for i := range price {
		price[i] = int64(10 + i%7) // Figure5Database's seeding
	}
	var sales []value.Tuple
	seq := 0
	window := func() []txn.Transaction {
		var w []txn.Transaction
		one := func(ty *txn.Type, rel string, dl *delta.Delta) {
			w = append(w, txn.Transaction{Type: ty, Updates: map[string]*delta.Delta{rel: dl}})
		}
		for _, i := range rng.Perm(hot)[:1+rng.Intn(hot)] {
			item := value.NewString(fmt.Sprintf("item%03d", i))
			next := price[i] + 1 + int64(rng.Intn(50))
			dl := delta.New(tSchema)
			dl.Modify(value.Tuple{item, value.NewInt(price[i])}, value.Tuple{item, value.NewInt(next)}, 1)
			price[i] = next
			one(modT, "T", dl)
		}
		for k := rng.Intn(6); k > 0; k-- {
			dl := delta.New(sSchema)
			if len(sales) > 12 {
				dl.Delete(sales[0], 1)
				sales = sales[1:]
				one(delS, "S", dl)
				continue
			}
			seq++
			sale := value.Tuple{
				value.NewString(fmt.Sprintf("pc%06d", seq)),
				value.NewString(fmt.Sprintf("item%03d", rng.Intn(hot))),
				value.NewInt(int64(1 + seq%5)),
			}
			dl.Insert(sale, 1)
			sales = append(sales, sale)
			one(insS, "S", dl)
		}
		return w
	}

	compiles := obs.C("maintain.plan_cache.compiles")
	compiles0 := compiles.Value()
	crossed := map[*dag.OpNode]bool{}
	names := map[string]bool{}
	heapAfter := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heap50, heap500 uint64 // with the maintainer still standing
	for w := 1; w <= 500; w++ {
		rep, err := m.ApplyBatch(window())
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		names[rep.Type.Name] = true
		for _, e := range rep.Track.Order {
			crossed[rep.Track.Choice[e.ID]] = true
		}
		if _, steps := m.PlanCacheSizes(); steps != len(crossed) {
			t.Fatalf("window %d: %d compiled steps for %d operation nodes crossed", w, steps, len(crossed))
		}
		switch w {
		case 50:
			heap50 = heapAfter()
		case 500:
			heap500 = heapAfter()
		}
	}
	if msg, err := m.Drift(d.Root); err != nil || msg != "" {
		t.Fatalf("drift: %q %v", msg, err)
	}
	if len(names) < 20 {
		t.Fatalf("only %d merged-type names seen: the windows did not vary", len(names))
	}
	if held, _ := m.PlanCacheSizes(); held != len(names) {
		t.Errorf("%d track plans cached for %d merged-type names", held, len(names))
	}
	// The counter is process-wide, so other maintainers may add to it.
	if got := compiles.Value() - compiles0; got < int64(len(crossed)) {
		t.Errorf("maintain.plan_cache.compiles rose by %d for %d steps compiled", got, len(crossed))
	}
	t.Logf("%d names, %d steps, heap %d KB after window 50, %d KB after window 500",
		len(names), len(crossed), heap50>>10, heap500>>10)
	if float64(heap500) > 1.5*float64(heap50) {
		t.Errorf("heap grew from %d KB after window 50 to %d KB after window 500 (> 1.5×)", heap50>>10, heap500>>10)
	}
}
