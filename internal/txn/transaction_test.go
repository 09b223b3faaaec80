package txn

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/value"
)

var testSchema = catalog.NewSchema(
	catalog.Column{Name: "K", Type: value.String},
	catalog.Column{Name: "V", Type: value.Int},
)

func row(k string, v int64) value.Tuple {
	return value.Tuple{value.NewString(k), value.NewInt(v)}
}

func ins(t value.Tuple) *delta.Delta {
	d := delta.New(testSchema)
	d.Insert(t, 1)
	return d
}

func del(t value.Tuple) *delta.Delta {
	d := delta.New(testSchema)
	d.Delete(t, 1)
	return d
}

func mod(old, new value.Tuple) *delta.Delta {
	d := delta.New(testSchema)
	d.Modify(old, new, 1)
	return d
}

func upd(rel string, kind Kind, cols ...string) RelUpdate {
	return RelUpdate{Rel: rel, Kind: kind, Size: 1, Cols: cols}
}

func typ(name string, us ...RelUpdate) *Type { return &Type{Name: name, Weight: 1, Updates: us} }

// mergedTypes folds a window and returns its merged type, and the type
// referenceMergedType builds for it.
func mergedTypes(co *delta.Coalescer, w *Window, txns []Transaction) (got, ref *Type) {
	ups := make([]map[string]*delta.Delta, len(txns))
	for i, t := range txns {
		ups[i] = t.Updates
	}
	merged := co.Coalesce(ups)
	w.Fold(txns)
	return w.MergedType(merged), referenceMergedType(txns, merged)
}

// referenceMergedType is the merged type built per transaction, with no
// fold: per relation, the declared update (UpdateOf) of every typed
// transaction whose delta for it is non-empty; a uniform kind survives,
// mixed kinds become Modify, columns union, sorted; untyped relations
// take inferKind. The name is formatted with fmt.
func referenceMergedType(txns []Transaction, merged delta.Coalesced) *Type {
	out := &Type{Weight: 1}
	parts := make([]string, 0, len(merged))
	for _, rd := range merged {
		var kind Kind
		seen, mixed := false, false
		colSet := map[string]bool{}
		for _, t := range txns {
			if t.Type == nil {
				continue
			}
			if d, ok := t.Updates[rd.Rel]; !ok || d.Empty() {
				continue
			}
			u, ok := t.Type.UpdateOf(rd.Rel)
			if !ok {
				continue
			}
			if !seen {
				kind, seen = u.Kind, true
			} else if u.Kind != kind {
				mixed = true
			}
			for _, c := range u.Cols {
				colSet[c] = true
			}
		}
		var cols []string
		switch {
		case !seen:
			kind = inferKind(rd.Delta)
		case mixed:
			kind = Modify
		}
		if seen {
			cols = []string{}
			for c := range colSet {
				cols = append(cols, c)
			}
			sort.Strings(cols)
		}
		u := RelUpdate{Rel: rd.Rel, Kind: kind, Size: float64(rd.Delta.Size()), Cols: cols}
		out.Updates = append(out.Updates, u)
		parts = append(parts, fmt.Sprintf("%s:%s:%s:%g", rd.Rel, kind, strings.Join(cols, "+"), u.Size))
	}
	out.Name = "batch[" + strings.Join(parts, " ") + "]"
	return out
}

// TestMergedType pins the synthesized type of a window: its name is a
// plan-cache key and shows in Explain, so every part of it is a
// contract.
func TestMergedType(t *testing.T) {
	plusS, minusS := typ("+S", upd("S", Insert)), typ("-S", upd("S", Delete))
	price := typ(">T", upd("T", Modify, "Price"))
	both := typ(">T2", upd("T", Modify, "Qty", "Price", "Qty"))
	for _, c := range []struct {
		name    string
		txns    []Transaction
		want    string
		updates []RelUpdate
	}{
		{"uniform kinds", []Transaction{
			{Type: plusS, Updates: map[string]*delta.Delta{"S": ins(row("a", 1))}},
			{Type: plusS, Updates: map[string]*delta.Delta{"S": ins(row("b", 2))}},
		}, "batch[S:insert::2]", []RelUpdate{{Rel: "S", Kind: Insert, Size: 2, Cols: []string{}}}},
		{"mixed kinds become modify", []Transaction{
			{Type: plusS, Updates: map[string]*delta.Delta{"S": ins(row("a", 1))}},
			{Type: minusS, Updates: map[string]*delta.Delta{"S": del(row("b", 2))}},
		}, "batch[S:modify::2]", []RelUpdate{{Rel: "S", Kind: Modify, Size: 2, Cols: []string{}}}},
		{"columns union, sorted", []Transaction{
			{Type: price, Updates: map[string]*delta.Delta{"T": mod(row("a", 1), row("a", 2))}},
			{Type: both, Updates: map[string]*delta.Delta{"T": mod(row("b", 1), row("b", 3))}},
		}, "batch[T:modify:Price+Qty:4]", []RelUpdate{{Rel: "T", Kind: Modify, Size: 4, Cols: []string{"Price", "Qty"}}}},
		{"one modify stays paired", []Transaction{
			{Type: price, Updates: map[string]*delta.Delta{"T": mod(row("a", 1), row("a", 2))}},
		}, "batch[T:modify:Price:1]", []RelUpdate{{Rel: "T", Kind: Modify, Size: 1, Cols: []string{"Price"}}}},
		{"untyped inserts", []Transaction{
			{Updates: map[string]*delta.Delta{"S": ins(row("a", 1))}},
			{Updates: map[string]*delta.Delta{"S": ins(row("b", 1))}},
		}, "batch[S:insert::2]", []RelUpdate{{Rel: "S", Kind: Insert, Size: 2}}},
		{"untyped deletes", []Transaction{
			{Updates: map[string]*delta.Delta{"S": del(row("a", 1))}},
		}, "batch[S:delete::1]", []RelUpdate{{Rel: "S", Kind: Delete, Size: 1}}},
		{"untyped mixture", []Transaction{
			{Updates: map[string]*delta.Delta{"S": del(row("a", 1))}},
			{Updates: map[string]*delta.Delta{"S": ins(row("b", 1))}},
		}, "batch[S:modify::2]", []RelUpdate{{Rel: "S", Kind: Modify, Size: 2}}},
		{"annihilated relation omitted", []Transaction{
			{Type: plusS, Updates: map[string]*delta.Delta{"S": ins(row("a", 1))}},
			{Type: price, Updates: map[string]*delta.Delta{"T": mod(row("t", 1), row("t", 2))}},
			{Type: minusS, Updates: map[string]*delta.Delta{"S": del(row("a", 1))}},
		}, "batch[T:modify:Price:2]", []RelUpdate{{Rel: "T", Kind: Modify, Size: 2, Cols: []string{"Price"}}}},
		{"sorted by relation", []Transaction{
			{Type: price, Updates: map[string]*delta.Delta{"T": mod(row("t", 1), row("t", 2))}},
			{Type: plusS, Updates: map[string]*delta.Delta{"S": ins(row("a", 1))}},
		}, "batch[S:insert::1 T:modify:Price:2]", []RelUpdate{
			{Rel: "S", Kind: Insert, Size: 1, Cols: []string{}},
			{Rel: "T", Kind: Modify, Size: 2, Cols: []string{"Price"}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var co delta.Coalescer
			var w Window
			got, ref := mergedTypes(&co, &w, c.txns)
			if got.Name != c.want || got.Weight != 1 {
				t.Errorf("MergedType = %q (weight %g), want %q", got.Name, got.Weight, c.want)
			}
			if !reflect.DeepEqual(got.Updates, c.updates) {
				t.Errorf("updates = %+v, want %+v", got.Updates, c.updates)
			}
			if ref.Name != got.Name || !reflect.DeepEqual(ref.Updates, got.Updates) {
				t.Errorf("MergedType %q %+v, reference %q %+v", got.Name, got.Updates, ref.Name, ref.Updates)
			}
		})
	}
}

// sameUpdates compares update lists, taking no columns as no columns
// whether nil (inferred) or empty (declared without any).
func sameUpdates(a, b []RelUpdate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Cols) == 0 && len(y.Cols) == 0 {
			x.Cols, y.Cols = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// TestWindowMergedTypeMatchesReference is the differential a plan cache
// keyed by the window's fold rests on: over random windows — typed and
// untyped transactions, types sharing pointers, types naming a relation
// twice, declaring relations they leave alone or leaving out relations
// they change, empty deltas and cancelling pairs — the folded type
// equals the one built per transaction (referenceMergedType), and two
// windows with one name have equal updates, so the type cached for a
// name is the type the window would build (up to a nil against an empty
// column list, which no reader tells apart).
func TestWindowMergedTypeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rels := []string{"R", "S", "T"}
	kinds := []Kind{Insert, Delete, Modify}
	colNames := []string{"A", "B", "C"}
	randType := func(i int) *Type {
		ty := &Type{Name: fmt.Sprintf("t%d", i), Weight: 1}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			u := RelUpdate{Rel: rels[rng.Intn(len(rels))], Kind: kinds[rng.Intn(len(kinds))], Size: 1}
			for _, c := range colNames {
				if rng.Intn(3) == 0 {
					u.Cols = append(u.Cols, c)
				}
			}
			ty.Updates = append(ty.Updates, u)
		}
		return ty
	}
	var pool []*Type
	for i := 0; i < 12; i++ {
		pool = append(pool, randType(i))
	}
	var co delta.Coalescer
	var w Window
	byName := map[string][]RelUpdate{}
	windows, hits := 0, 0
	for trial := 0; trial < 3000; trial++ {
		txns := make([]Transaction, 1+rng.Intn(12))
		for i := range txns {
			switch rng.Intn(8) {
			case 0: // untyped
			case 1: // a type of its own
				txns[i].Type = randType(100 + i)
			default:
				txns[i].Type = pool[rng.Intn(4+trial%len(pool)/2)]
			}
			txns[i].Updates = map[string]*delta.Delta{}
			for _, rel := range rels {
				k := fmt.Sprintf("k%d", rng.Intn(6))
				switch rng.Intn(6) {
				case 0:
					txns[i].Updates[rel] = ins(row(k, 1))
				case 1:
					txns[i].Updates[rel] = del(row(k, 1))
				case 2:
					txns[i].Updates[rel] = mod(row(k, 1), row(k, 2))
				case 3:
					txns[i].Updates[rel] = delta.New(testSchema)
				}
			}
		}
		got, ref := mergedTypes(&co, &w, txns)
		if got.Name != ref.Name || !sameUpdates(got.Updates, ref.Updates) {
			t.Fatalf("trial %d: MergedType %q %+v, reference %q %+v", trial, got.Name, got.Updates, ref.Name, ref.Updates)
		}
		if prev, ok := byName[got.Name]; ok {
			hits++
			if !sameUpdates(prev, got.Updates) {
				t.Fatalf("trial %d: name %q names two update lists:\n%+v\n%+v", trial, got.Name, prev, got.Updates)
			}
		} else {
			byName[got.Name] = got.Updates
		}
		n := 0
		for _, u := range w.Uses() {
			n += u.N
		}
		if n != len(txns) {
			t.Fatalf("trial %d: fold counts %d transactions of %d", trial, n, len(txns))
		}
		windows++
	}
	if hits < windows/10 {
		t.Fatalf("only %d of %d windows repeat a name: the equal-updates property is barely exercised", hits, windows)
	}
}
