package bytemap

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refBag is the map-based reference model the open-addressed table is
// checked against.
type refBag map[string]int64

func checkAgainstRef(t *testing.T, m *Map[int64], ref refBag) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		got, ok := m.Get([]byte(k))
		if !ok {
			t.Fatalf("key %q missing from open table", k)
		}
		if got != want {
			t.Fatalf("key %q = %d, want %d", k, got, want)
		}
	}
	seen := map[string]int64{}
	m.Range(func(k []byte, v *int64) bool {
		if _, dup := seen[string(k)]; dup {
			t.Fatalf("Range yielded key %q twice", k)
		}
		seen[string(k)] = *v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range yielded %d keys, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Range key %q = %d, want %d", k, seen[k], v)
		}
	}
}

// TestDifferentialRandomWorkload drives the open table and a Go map
// through identical random insert/overwrite/delete/lookup/reset streams
// and demands identical visible state throughout, across several
// key-size regimes so growth and rehash boundaries are crossed many
// times.
func TestDifferentialRandomWorkload(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		keys    int // size of the key universe
		ops     int
		maxKLen int
	}{
		{"small-universe", 13, 4000, 6}, // constant churn, heavy delete reuse
		{"growth", 5000, 20000, 12},     // crosses many growth boundaries
		{"long-keys", 300, 6000, 200},   // multi-block-sized keys
		{"singleton", 1, 500, 3},        // degenerate single-key
		{"empty-keys", 50, 3000, 0},     // zero-length keys allowed
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xB17E))
			universe := make([][]byte, cfg.keys)
			for i := range universe {
				k := make([]byte, rng.Intn(cfg.maxKLen+1))
				rng.Read(k)
				universe[i] = k
			}
			var m Map[int64]
			ref := refBag{}
			for op := 0; op < cfg.ops; op++ {
				k := universe[rng.Intn(len(universe))]
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert/overwrite
					v := rng.Int63()
					m.Put(k, v)
					ref[string(k)] = v
				case 4: // GetOrPut
					v := rng.Int63()
					p, _, existed := m.GetOrPut(k, v)
					_, refExisted := ref[string(k)]
					if existed != refExisted {
						t.Fatalf("GetOrPut existed=%v, reference says %v", existed, refExisted)
					}
					if !existed {
						ref[string(k)] = v
					}
					if *p != ref[string(k)] {
						t.Fatalf("GetOrPut value %d, want %d", *p, ref[string(k)])
					}
				case 5, 6: // delete
					got := m.Delete(k)
					_, want := ref[string(k)]
					if got != want {
						t.Fatalf("Delete = %v, reference says %v", got, want)
					}
					delete(ref, string(k))
				case 7, 8: // lookup
					got, ok := m.Get(k)
					want, refOK := ref[string(k)]
					if ok != refOK || (ok && got != want) {
						t.Fatalf("Get = (%d,%v), want (%d,%v)", got, ok, want, refOK)
					}
				case 9:
					if rng.Intn(50) == 0 { // occasional full reset
						m.Reset()
						ref = refBag{}
					}
				}
				if op%257 == 0 {
					checkAgainstRef(t, &m, ref)
				}
			}
			checkAgainstRef(t, &m, ref)
		})
	}
}

// TestDeletedSlotReuse empties and refills the table repeatedly:
// backward-shift deletion must leave no tombstones, so the slot table
// never grows past what the peak population requires.
func TestDeletedSlotReuse(t *testing.T) {
	var m Map[int]
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	for i, k := range keys {
		m.Put(k, i)
	}
	capAfterFill := m.Cap()
	for round := 0; round < 200; round++ {
		for _, k := range keys {
			if !m.Delete(k) {
				t.Fatalf("round %d: Delete(%q) = false", round, k)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("round %d: Len = %d after deleting all", round, m.Len())
		}
		for i, k := range keys {
			m.Put(k, i*round)
		}
		if m.Cap() != capAfterFill {
			t.Fatalf("round %d: cap grew %d -> %d despite constant population (tombstone leak)",
				round, capAfterFill, m.Cap())
		}
	}
	for i, k := range keys {
		if v, ok := m.Get(k); !ok || v != i*199 {
			t.Fatalf("Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i*199)
		}
	}
}

// TestGrowthBoundaries inserts exactly up to and across each load-factor
// threshold and verifies every key survives the rehash.
func TestGrowthBoundaries(t *testing.T) {
	var m Map[int]
	for i := 0; i < 3000; i++ {
		before := m.Cap()
		m.Put([]byte(fmt.Sprintf("%d", i)), i)
		if m.Cap() != before { // just rehashed: audit everything
			for j := 0; j <= i; j++ {
				v, ok := m.Get([]byte(fmt.Sprintf("%d", j)))
				if !ok || v != j {
					t.Fatalf("after growth to %d at n=%d: key %d = (%d,%v)",
						m.Cap(), i+1, j, v, ok)
				}
			}
		}
	}
}

// TestRefStability checks that Refs handed out by GetOrPut keep pointing
// at the right bytes across arbitrarily many later inserts and rehashes
// (the arena is append-only), and that KeyAt round-trips exactly.
func TestRefStability(t *testing.T) {
	var m Map[int]
	type held struct {
		key []byte
		ref Ref
	}
	var holds []held
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := make([]byte, 1+rng.Intn(20))
		rng.Read(k)
		_, ref, existed := m.GetOrPut(k, i)
		if !existed {
			holds = append(holds, held{key: append([]byte(nil), k...), ref: ref})
		}
	}
	for _, h := range holds {
		if !bytes.Equal(m.KeyAt(h.ref), h.key) {
			t.Fatalf("KeyAt(%v) = %x, want %x", h.ref, m.KeyAt(h.ref), h.key)
		}
	}
}

// TestValuePointerWrite verifies the GetOrPut pointer writes through to
// the stored record even when the insert displaced residents (robin
// hood) or the record was placed via displacement chains.
func TestValuePointerWrite(t *testing.T) {
	var m Map[int]
	ptrs := map[string]*int{}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		p, _, _ := m.GetOrPut(k, 0)
		*p = i * 3
		ptrs[string(k)] = p // stale after next mutation; only *p written above counts
	}
	_ = ptrs
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if v, _ := m.Get(k); v != i*3 {
			t.Fatalf("key %q = %d, want %d", k, v, i*3)
		}
	}
}

// TestProbeStats sanity-checks the observability counters: ops grow
// monotonically, and mean probe length stays modest at the working load
// factor (robin hood keeps variance tight).
func TestProbeStats(t *testing.T) {
	var m Map[int]
	for i := 0; i < 10000; i++ {
		m.Put([]byte(fmt.Sprintf("key-%d", i)), i)
	}
	for i := 0; i < 10000; i++ {
		m.Get([]byte(fmt.Sprintf("key-%d", i)))
	}
	probes, ops, maxProbe := m.ProbeStats()
	if ops < 20000 {
		t.Fatalf("ops = %d, want >= 20000", ops)
	}
	mean := float64(probes) / float64(ops)
	if mean > 4 {
		t.Errorf("mean probe length %.2f, want <= 4 at 0.875 load", mean)
	}
	if maxProbe < 1 {
		t.Errorf("maxProbe = %d, want >= 1", maxProbe)
	}
}

// TestRangeOrderCoversAll double-checks Range against sorted key dumps
// after a delete-heavy workload.
func TestRangeOrderCoversAll(t *testing.T) {
	var m Map[int]
	ref := map[string]int{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("%d", rng.Intn(500))
		if rng.Intn(3) == 0 {
			m.Delete([]byte(k))
			delete(ref, k)
		} else {
			m.Put([]byte(k), i)
			ref[k] = i
		}
	}
	var got, want []string
	m.Range(func(k []byte, v *int) bool {
		got = append(got, fmt.Sprintf("%s=%d", k, *v))
		return true
	})
	for k, v := range ref {
		want = append(want, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("Range yielded %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %q != %q", i, got[i], want[i])
		}
	}
}
