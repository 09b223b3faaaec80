package storage

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/value"
)

// refBag is the trivially-correct reference model: a map from tuple keys
// to counts.
type refBag struct {
	counts map[string]int64
	tuples map[string]value.Tuple
}

func newRefBag() *refBag {
	return &refBag{counts: map[string]int64{}, tuples: map[string]value.Tuple{}}
}

func (b *refBag) apply(m Mutation) {
	n := m.Count
	if n == 0 {
		n = 1
	}
	if m.Old != nil {
		k := m.Old.Key()
		b.counts[k] -= n
		if b.counts[k] <= 0 {
			delete(b.counts, k)
			delete(b.tuples, k)
		}
	}
	if m.New != nil {
		k := m.New.Key()
		b.counts[k] += n
		b.tuples[k] = m.New
	}
}

func (b *refBag) matching(pos []int, key value.Tuple) map[string]int64 {
	out := map[string]int64{}
	for k, t := range b.tuples {
		if t.Project(pos).Equal(key) {
			out[k] = b.counts[k]
		}
	}
	return out
}

// TestRelationAgainstReferenceModel drives random mutation batches
// against both the storage engine and the reference bag, comparing
// contents and index lookups after every batch, and probes every tuple
// the stream can hold through the key directory over (A, B) — a key of
// the stored set, whose tuples die and revive constantly.
func TestRelationAgainstReferenceModel(t *testing.T) {
	def := &catalog.TableDef{
		Name: "T",
		Schema: catalog.NewSchema(
			catalog.Column{Qualifier: "T", Name: "A", Type: value.Int},
			catalog.Column{Qualifier: "T", Name: "B", Type: value.Int},
		),
		Indexes: []catalog.IndexDef{{Name: "t_a", Columns: []string{"A"}}},
	}
	st := NewStore()
	rel, err := st.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefBag()
	rng := rand.New(rand.NewSource(11))

	tup := func() value.Tuple {
		return value.Tuple{
			value.NewInt(int64(rng.Intn(5))),
			value.NewInt(int64(rng.Intn(5))),
		}
	}
	existing := func() value.Tuple {
		for k := range ref.tuples {
			return ref.tuples[k]
		}
		return nil
	}

	for step := 0; step < 500; step++ {
		var batch []Mutation
		for i := 0; i < 1+rng.Intn(3); i++ {
			switch rng.Intn(3) {
			case 0:
				batch = append(batch, Mutation{New: tup(), Count: int64(1 + rng.Intn(2))})
			case 1:
				if old := existing(); old != nil {
					batch = append(batch, Mutation{Old: old, Count: 1})
				}
			default:
				if old := existing(); old != nil {
					batch = append(batch, Mutation{Old: old, New: tup(), Count: 1})
				}
			}
		}
		// Reference first (mutations reference current contents; the
		// engine floors deletes at zero the same way).
		for _, m := range batch {
			ref.apply(m)
		}
		rel.ApplyBatch(batch)

		// Compare full contents.
		got := map[string]int64{}
		for _, row := range rel.ScanFree() {
			got[row.Tuple.Key()] = row.Count
		}
		if len(got) != len(ref.counts) {
			t.Fatalf("step %d: %d live tuples, reference has %d", step, len(got), len(ref.counts))
		}
		for k, n := range ref.counts {
			if got[k] != n {
				t.Fatalf("step %d: tuple count %d, reference %d", step, got[k], n)
			}
		}
		// Compare an index lookup.
		probe := value.Tuple{value.NewInt(int64(rng.Intn(5)))}
		rows := rel.Lookup([]string{"A"}, probe)
		want := ref.matching([]int{0}, probe)
		if len(rows) != len(want) {
			t.Fatalf("step %d: lookup %d rows, reference %d", step, len(rows), len(want))
		}
		for _, row := range rows {
			if want[row.Tuple.Key()] != row.Count {
				t.Fatalf("step %d: lookup count mismatch", step)
			}
		}
		// Probe every possible tuple through the key directory: a live
		// one yields exactly its row, an absent one nothing.
		for a := int64(0); a < 5; a++ {
			for b := int64(0); b < 5; b++ {
				key := value.Tuple{value.NewInt(a), value.NewInt(b)}
				var got []Row
				rel.IterateKey([]int{0, 1}, key, func(row Row) bool {
					got = append(got, row)
					return true
				})
				n := ref.counts[key.Key()]
				if n == 0 && len(got) != 0 || n > 0 && (len(got) != 1 || !got[0].Tuple.Equal(key) || got[0].Count != n) {
					t.Fatalf("step %d: key probe %v = %v, reference count %d", step, key, got, n)
				}
			}
		}
		if rel.keyDirs[0].off {
			t.Fatalf("step %d: key directory switched off on a set with no repeated key", step)
		}
	}
}

// TestLookupPartialIndexUse: a probe binding more columns than the index
// covers must use the index and filter the rest — and charge per touched
// bucket tuple, not per match.
func TestLookupPartialIndexUse(t *testing.T) {
	def := &catalog.TableDef{
		Name: "T",
		Schema: catalog.NewSchema(
			catalog.Column{Qualifier: "T", Name: "A", Type: value.Int},
			catalog.Column{Qualifier: "T", Name: "B", Type: value.Int},
		),
		Indexes: []catalog.IndexDef{{Name: "t_a", Columns: []string{"A"}}},
	}
	st := NewStore()
	rel, _ := st.Create(def)
	for b := 0; b < 4; b++ {
		rel.LoadTuples([]value.Tuple{{value.NewInt(1), value.NewInt(int64(b))}})
	}
	rel.LoadTuples([]value.Tuple{{value.NewInt(2), value.NewInt(0)}})

	st.IO.Reset()
	rows := rel.Lookup([]string{"A", "B"}, value.Tuple{value.NewInt(1), value.NewInt(2)})
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	// 1 index page + 4 bucket tuples touched.
	if st.IO.Total() != 5 {
		t.Errorf("charge = %v, want 5", st.IO)
	}
}
