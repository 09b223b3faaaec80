package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestFootprintFollowsLiveRows holds what a relation keeps for its churn
// to a quarter of its live rows: 10 500 keyed rows take single-row
// salary modifies, one batch each, and after 20 000 and again after
// 200 000 of them the entries slice is within live + live/4 + stock +
// 1024 (the sweep's trigger), the row directory has not grown between
// the two, and the slab holds no more Values than the live tuples and
// the free-slot stock (no second generation, no dead-tuple backlog).
// The key directory over EName answers for every row throughout.
func TestFootprintFollowsLiveRows(t *testing.T) {
	const live, arity = 10500, 3
	_, rel := newEmpRel(t)
	for i := 0; i < live; i++ {
		rel.LoadTuples([]value.Tuple{emp(fmt.Sprintf("e%05d", i), fmt.Sprintf("d%04d", i%1000), 100)})
	}
	salary := make([]int64, live)
	for i := range salary {
		salary[i] = 100
	}
	key := []int{0}
	rel.IterateKey(key, value.Tuple{value.NewString("e00000")}, func(Row) bool { return true })

	rng := rand.New(rand.NewSource(3))
	modify := func(n int) {
		for ; n > 0; n-- {
			i := rng.Intn(live)
			name, dept := fmt.Sprintf("e%05d", i), fmt.Sprintf("d%04d", i%1000)
			s := int64(80 + rng.Intn(71))
			rel.ApplyBatch([]Mutation{{Old: emp(name, dept, salary[i]), New: emp(name, dept, s), Count: 1}})
			salary[i] = s
		}
	}
	check := func(after int) (rowCap int) {
		t.Helper()
		if rel.Card() != live {
			t.Fatalf("after %d modifies: %d live rows, want %d", after, rel.Card(), live)
		}
		if bound := live + live/4 + rel.freeStock + 1024; len(rel.entries) > bound {
			t.Errorf("after %d modifies: %d entries for %d live and %d stock, want <= %d",
				after, len(rel.entries), live, rel.freeStock, bound)
		}
		vals := 0
		for _, blk := range rel.slab.blocks {
			vals += len(blk)
		}
		if bound := (live + rel.freeStock) * arity; vals > bound {
			t.Errorf("after %d modifies: slab holds %d Values for %d live and %d stock tuples, want <= %d",
				after, vals, live, rel.freeStock, bound)
		}
		for i := 0; i < live; i += 97 {
			name := fmt.Sprintf("e%05d", i)
			var got []Row
			rel.IterateKey(key, value.Tuple{value.NewString(name)}, func(r Row) bool {
				got = append(got, r)
				return true
			})
			if len(got) != 1 || !got[0].Tuple.Equal(emp(name, fmt.Sprintf("d%04d", i%1000), salary[i])) {
				t.Fatalf("after %d modifies: probe %s = %v", after, name, got)
			}
		}
		t.Logf("after %d modifies: %d entries, %d stock, %d slab blocks, %d row-directory slots",
			after, len(rel.entries), rel.freeStock, len(rel.slab.blocks), rel.rows.Cap())
		return rel.rows.Cap()
	}
	modify(20000)
	short := check(20000)
	modify(180000)
	if long := check(200000); long != short {
		t.Errorf("row directory grew from %d to %d slots between 20 000 and 200 000 modifies", short, long)
	}
}
