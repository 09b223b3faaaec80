package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/value"
)

// refView is the reference the chunked epochs are held to: the
// map-and-sort snapshot the hub once rebuilt on every window. It keeps
// the live rows in a map by key encoding, and each snapshot copies them
// out and sorts the copy.
type refView struct {
	rows map[string]Row
	enc  value.KeyEncoder
}

func newRefView() *refView { return &refView{rows: map[string]Row{}} }

func (r *refView) fold(changes []Change) {
	for _, c := range changes {
		if c.Old != nil {
			k := string(r.enc.Key(c.Old))
			row := r.rows[k]
			row.Count -= c.Count
			if row.Count <= 0 {
				delete(r.rows, k)
			} else {
				r.rows[k] = row
			}
		}
		if c.New != nil {
			k := string(r.enc.Key(c.New))
			row, ok := r.rows[k]
			if !ok {
				row = Row{Tuple: c.New}
			}
			row.Count += c.Count
			r.rows[k] = row
		}
	}
}

func (r *refView) lookup(t value.Tuple) (Row, bool) {
	row, ok := r.rows[string(r.enc.Key(t))]
	return row, ok
}

func (r *refView) snapshot() []Row {
	out := make([]Row, 0, len(r.rows))
	for _, row := range r.rows {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i].Tuple, out[j].Tuple) })
	return out
}

// refLess spells out the scan order: value.Compare column by column with
// NaN before every other number, then the key encodings' bytes.
func refLess(a, b value.Tuple) bool {
	for i := range a {
		an := a[i].Kind == value.Float && math.IsNaN(a[i].F())
		bn := b[i].Kind == value.Float && math.IsNaN(b[i].F())
		switch {
		case an && bn:
			continue
		case an && isNumber(b[i]):
			return true
		case bn && isNumber(a[i]):
			return false
		}
		if c := value.Compare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return bytes.Compare(value.AppendKey(nil, a), value.AppendKey(nil, b)) < 0
}

// refPage is the paging rule the HTTP handler applied to a full row
// slice before epochs were chunked.
func refPage(rows []Row, offset, limit int) []Row {
	if offset < 0 {
		offset = 0
	}
	if offset > len(rows) {
		offset = len(rows)
	}
	rows = rows[offset:]
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

func sameRow(a, b Row) bool { return a.Count == b.Count && value.SameTuple(a.Tuple, b.Tuple) }

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRow(a[i], b[i]) {
			return false
		}
	}
	return true
}

var testSchema = catalog.NewSchema(
	catalog.Column{Name: "a", Type: value.Float},
	catalog.Column{Name: "b", Type: value.Int})

// newTestHub serves one view, seeded with rows, with no feed log; the
// caller closes the hub. Tests drive windows through h.process on their
// own goroutine; the hub goroutine stays idle because nothing calls
// OnWindow.
func newTestHub(tb testing.TB, rows []Row) (*Hub, *viewState) {
	tb.Helper()
	rel, err := storage.NewStore().Create(&catalog.TableDef{Name: "V", Schema: testSchema})
	if err != nil {
		tb.Fatal(err)
	}
	seed := make([]storage.Row, len(rows))
	for i, r := range rows {
		seed[i] = storage.Row{Tuple: r.Tuple, Count: r.Count}
	}
	rel.Load(seed)
	h, err := NewHub(HubConfig{Views: []ViewSource{{Name: "V", Schema: testSchema, EqID: 1, Rel: rel}}})
	if err != nil {
		tb.Fatal(err)
	}
	return h, h.views["V"]
}

func (h *Hub) testWindow(vs *viewState, changes []Change) *Epoch {
	h.process(ownedWindow{txns: 1, views: []ownedViewDelta{{state: vs, changes: changes}}})
	return vs.cur.Load()
}

// specials are the first column's values: NULL, both zeros, two NaN
// payloads and Int/Float twins, which value.Compare ties or leaves
// unordered.
var specials = []value.Value{
	value.NewNull(),
	value.NewInt(0),
	value.NewFloat(0),
	value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.NaN()),
	value.NewFloat(math.Float64frombits(0xfff8000000000000)),
	value.NewInt(1),
	value.NewFloat(1),
	value.NewString("a"),
}

func testTuple(x, y byte) value.Tuple {
	return value.Tuple{specials[int(x)%len(specials)], value.NewInt(int64(y))}
}

// foldCase runs windows through one served view and its reference and
// checks, after every window, the new epoch and every retained one.
type foldCase struct {
	tb   testing.TB
	h    *Hub
	vs   *viewState
	ref  *refView
	want map[*Epoch][]Row // the reference's snapshot when each epoch was published
	last []Row
}

func newFoldCase(tb testing.TB) *foldCase {
	h, vs := newTestHub(tb, nil)
	tb.Cleanup(func() { h.Close() })
	fc := &foldCase{tb: tb, h: h, vs: vs, ref: newRefView(), want: map[*Epoch][]Row{}}
	fc.want[vs.cur.Load()] = nil
	return fc
}

func (fc *foldCase) window(changes []Change) {
	fc.tb.Helper()
	fc.ref.fold(changes)
	ep := fc.h.testWindow(fc.vs, changes)
	fc.last = fc.ref.snapshot()
	fc.want[ep] = fc.last
	fc.check(ep)
	retained := map[*Epoch]bool{}
	for _, old := range fc.vs.ring {
		retained[old] = true
		if got := old.Page(0, -1); !sameRows(got, fc.want[old]) {
			fc.tb.Fatalf("retained epoch %d changed after publication:\n got %v\nwant %v", old.Seq, got, fc.want[old])
		}
	}
	for ep := range fc.want {
		if !retained[ep] {
			delete(fc.want, ep)
		}
	}
}

// check holds ep to the reference's current rows: Len, pages at edge
// offsets and limits, point reads of present and absent rows, and the
// chunk bounds.
func (fc *foldCase) check(ep *Epoch) {
	fc.tb.Helper()
	want := fc.last
	n := len(want)
	if ep.Len() != n {
		fc.tb.Fatalf("epoch %d: Len %d, want %d", ep.Seq, ep.Len(), n)
	}
	for _, off := range []int{-1, 0, 1, chunkRows - 1, chunkRows, 2*chunkRows + 1, n / 2, n - 1, n, n + 1} {
		for _, lim := range []int{-1, 0, 1, chunkRows, 100, n, n + 1} {
			if got, w := ep.Page(off, lim), refPage(want, off, lim); !sameRows(got, w) {
				fc.tb.Fatalf("epoch %d: Page(%d, %d) =\n %v\nwant %v", ep.Seq, off, lim, got, w)
			}
		}
	}
	for _, r := range want {
		if got, ok := ep.Lookup(r.Tuple); !ok || !sameRow(got, r) {
			fc.tb.Fatalf("epoch %d: Lookup(%v) = %v %v, want %v", ep.Seq, r.Tuple, got, ok, r)
		}
	}
	for x := range specials {
		for _, y := range []byte{0, 1, 2, 255} {
			t := testTuple(byte(x), y)
			got, ok := ep.Lookup(t)
			w, wok := fc.ref.lookup(t)
			if ok != wok || ok && !sameRow(got, w) {
				fc.tb.Fatalf("epoch %d: Lookup(%v) = %v %v, want %v %v", ep.Seq, t, got, ok, w, wok)
			}
		}
	}
	end := 0
	for i, c := range ep.chunks {
		end += len(c.rows)
		switch {
		case len(c.rows) == 0 || len(c.rows) >= 2*chunkRows:
			fc.tb.Fatalf("epoch %d: chunk %d holds %d rows", ep.Seq, i, len(c.rows))
		case len(c.rows) < chunkRows/4 && len(ep.chunks) > 1:
			fc.tb.Fatalf("epoch %d: chunk %d of %d holds %d rows, below the merge bound", ep.Seq, i, len(ep.chunks), len(c.rows))
		case c.end != end:
			fc.tb.Fatalf("epoch %d: chunk %d ends at %d, want %d", ep.Seq, i, c.end, end)
		}
	}
}

// run decodes ops three bytes at a time: an op code, then two value
// selectors. Op code mod 4 inserts, deletes a present row, modifies a
// present row, or closes the window; bits 2–3 give the count (1–4).
func (fc *foldCase) run(data []byte) {
	fc.tb.Helper()
	var w []Change
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], data[1], data[2]
		n := int64(op>>2&3) + 1
		t := testTuple(x, y)
		present := t
		if len(fc.last) > 0 {
			present = fc.last[(int(x)<<8|int(y))%len(fc.last)].Tuple
		}
		switch op & 3 {
		case 0:
			w = append(w, Change{New: t, Count: n})
		case 1:
			w = append(w, Change{Old: present, Count: n})
		case 2:
			w = append(w, Change{Old: present, New: t, Count: n})
		case 3:
			fc.window(w)
			w = nil
		}
	}
	if len(w) > 0 {
		fc.window(w)
	}
}

// drain deletes every row, a few per window, with counts at and above
// what each row holds.
func (fc *foldCase) drain(rng *rand.Rand) {
	fc.tb.Helper()
	for len(fc.last) > 0 {
		var w []Change
		for _, i := range rng.Perm(len(fc.last))[:min(len(fc.last), 1+rng.Intn(12))] {
			r := fc.last[i]
			w = append(w, Change{Old: r.Tuple, Count: r.Count + int64(rng.Intn(2))})
		}
		fc.window(w)
	}
	if ep := fc.vs.cur.Load(); ep.Len() != 0 || len(ep.chunks) != 0 {
		fc.tb.Fatalf("drained view: %d rows in %d chunks", ep.Len(), len(ep.chunks))
	}
}

// randomOps draws k ops; weights[i] is the share of op code i.
func randomOps(rng *rand.Rand, k int, weights [4]int) []byte {
	total := weights[0] + weights[1] + weights[2] + weights[3]
	out := make([]byte, 0, 3*k)
	for ; k > 0; k-- {
		p, op := rng.Intn(total), 0
		for p >= weights[op] {
			p -= weights[op]
			op++
		}
		out = append(out, byte(op|rng.Intn(4)<<2), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return out
}

// TestEpochFoldDifferential grows a view from empty past several chunk
// splits, churns it, drains it to empty (merging chunks on the way
// down), grows and drains it again, holding every epoch to the
// reference snapshot throughout.
func TestEpochFoldDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fc := newFoldCase(t)
	for round := 0; round < 2; round++ {
		fc.run(randomOps(rng, 1000, [4]int{14, 2, 3, 3}))
		if got := len(fc.vs.cur.Load().chunks); got < 6 {
			t.Fatalf("round %d: grew to %d rows in %d chunks, want several splits", round, fc.vs.cur.Load().Len(), got)
		}
		fc.run(randomOps(rng, 300, [4]int{2, 2, 6, 2}))
		fc.run(randomOps(rng, 300, [4]int{1, 8, 1, 2}))
		fc.drain(rng)
	}
}

// FuzzEpochFold holds chunked epochs to the reference snapshot on
// arbitrary op streams (see foldCase.run).
func FuzzEpochFold(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 0, 3, 0, 3, 0, 0, 1, 0, 0, 3, 0, 0, 0, 2, 0})
	f.Add(randomOps(rng, 40, [4]int{4, 1, 1, 1}))
	f.Add(randomOps(rng, 400, [4]int{10, 1, 2, 2}))
	f.Add(append(randomOps(rng, 300, [4]int{12, 0, 0, 1}), randomOps(rng, 400, [4]int{0, 10, 1, 1})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		newFoldCase(t).run(data)
	})
}

// TestEpochOrderIsTotal: rows value.Compare ties or leaves unordered
// (NULL, ±0.0, two NaNs, Int/Float twins) scan in one order, the same
// bytes at every epoch, and each reads back as its own row.
func TestEpochOrderIsTotal(t *testing.T) {
	var rows []Row
	for i, v := range specials[:len(specials)-1] {
		rows = append(rows, Row{Tuple: value.Tuple{v, value.NewInt(0)}, Count: int64(i + 1)})
	}
	h, vs := newTestHub(t, rows)
	defer h.Close()
	srv := New(Config{Hub: h})
	scan := func() string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/view/V?limit=%d", len(rows)), nil))
		body := rec.Body.String()
		return body[strings.Index(body, `"rows":`):]
	}
	// NULL, the NaNs by bits, then 0, +0.0, −0.0, 1, 1.0 (Int before
	// Float, then by bits).
	want := []int64{1, 5, 6, 2, 3, 4, 7, 8}
	first := scan()
	churn := value.Tuple{value.NewString("z"), value.NewInt(0)}
	for i := 0; i < 40; i++ {
		c := Change{New: churn, Count: 1}
		if i%3 == 2 {
			c = Change{Old: churn, Count: 1}
		}
		ep := h.testWindow(vs, []Change{c})
		if got := scan(); got != first {
			t.Fatalf("epoch %d scans\n %s\nepoch 0 scanned\n %s", ep.Seq, got, first)
		}
		for j, r := range ep.Page(0, len(rows)) {
			if r.Count != want[j] {
				t.Fatalf("epoch %d: row %d is %v count %d, want count %d", ep.Seq, j, r.Tuple, r.Count, want[j])
			}
		}
		for _, r := range rows {
			if got, ok := ep.Lookup(r.Tuple); !ok || !sameRow(got, r) {
				t.Fatalf("epoch %d: Lookup(%v) = %v %v, want %v", ep.Seq, r.Tuple, got, ok, r)
			}
		}
	}
}

func seqRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Tuple: value.Tuple{value.NewFloat(float64(i)), value.NewInt(int64(i))}, Count: 1}
	}
	return rows
}

// TestEpochRetentionIsDeltaSized: a full ring of one-row windows over a
// 10k-row view holds the newest epoch's chunks plus the ≤ 2 chunks each
// window copied, not a copy of the view per epoch.
func TestEpochRetentionIsDeltaSized(t *testing.T) {
	const n = 10_000
	h, vs := newTestHub(t, seqRows(n))
	defer h.Close()
	for k := 0; k < h.retain; k++ {
		// Move one row into another chunk: one chunk loses it, one gains.
		i := 150 * k
		h.testWindow(vs, []Change{{
			Old:   value.Tuple{value.NewFloat(float64(i)), value.NewInt(int64(i))},
			New:   value.Tuple{value.NewFloat(float64(i+n/2) + 0.5), value.NewInt(int64(i))},
			Count: 1,
		}})
	}
	if len(vs.ring) != h.retain {
		t.Fatalf("ring holds %d epochs, want %d", len(vs.ring), h.retain)
	}
	arrays := map[*Row]bool{}
	for _, ep := range vs.ring {
		for _, c := range ep.chunks {
			arrays[unsafe.SliceData(c.rows)] = true
		}
	}
	chunks := len(vs.cur.Load().chunks)
	if bound := chunks + 2*h.retain; len(arrays) > bound {
		t.Fatalf("%d epochs retain %d distinct chunk arrays, want <= %d (%d chunks in the view)",
			len(vs.ring), len(arrays), bound, chunks)
	}
	t.Logf("%d epochs of a %d-row view in %d chunks retain %d chunk arrays", len(vs.ring), n, chunks, len(arrays))
}

// hubWindows is a one-row modify per window over 256 rows spread
// through the view: window i moves row i%256 between two values and
// back, so every window is valid against the one before it.
type hubWindows struct {
	a, b []value.Tuple
	w    ownedWindow
}

func newHubWindows(vs *viewState, n int) *hubWindows {
	hw := &hubWindows{}
	for j := 0; j < 256; j++ {
		i := j * (n / 256)
		hw.a = append(hw.a, value.Tuple{value.NewFloat(float64(i)), value.NewInt(int64(i))})
		hw.b = append(hw.b, value.Tuple{value.NewFloat(float64(i) + 0.25), value.NewInt(int64(i))})
	}
	hw.w = ownedWindow{txns: 1, views: []ownedViewDelta{{state: vs, changes: make([]Change, 1)}}}
	return hw
}

func (hw *hubWindows) next(i int) ownedWindow {
	j := i % 256
	c := Change{Old: hw.a[j], New: hw.b[j], Count: 1}
	if i/256%2 == 1 {
		c.Old, c.New = c.New, c.Old
	}
	hw.w.views[0].changes[0] = c
	return hw.w
}

var benchRows []Row

// BenchmarkHubWindow times one-row windows through Hub.process (fold,
// publish, retention ring, event payload; no feed, no subscribers) on a
// 1k- and a 100k-row view. live-MB is the heap the run leaves live
// beyond what was live before the view was seeded: the retained epochs
// and the rows they hold.
func BenchmarkHubWindow(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			var base, before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&base)
			h, vs := newTestHub(b, seqRows(n))
			defer h.Close()
			hw := newHubWindows(vs, n)
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.process(hw.next(i))
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/window")
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.HeapAlloc-base.HeapAlloc)/1e6, "live-MB")
		})
	}
}

// BenchmarkEpochRead times the two reads the HTTP handler makes of a
// 100k-row epoch: a point read and a 100-row page.
func BenchmarkEpochRead(b *testing.B) {
	const n = 100_000
	rows := seqRows(n)
	h, _ := newTestHub(b, rows)
	defer h.Close()
	ep, _ := h.Current("V")
	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, ok := ep.Lookup(rows[i*7919%n].Tuple)
			if !ok {
				b.Fatal("row missing")
			}
			benchRows = append(benchRows[:0], r)
		}
	})
	b.Run("page100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRows = ep.Page(i*7919%(n-100), 100)
		}
	})
}
