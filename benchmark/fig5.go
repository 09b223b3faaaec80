package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/delta"
	"repro/internal/txn"
	"repro/internal/value"
)

// Figure 5 of the paper: revenue per item over R ⋈ S ⋈ T, where the
// aggregate multiplies columns from both sides of a join. The HAVING
// threshold sits inside the range a hot item's revenue moves through
// (820 × price, price 10..106), so price changes move items into and
// out of the top-level view.
const fig5Schema = `
CREATE TABLE R (RName VARCHAR(20) PRIMARY KEY, Item VARCHAR(20));
CREATE TABLE S (SName VARCHAR(20) PRIMARY KEY, Item VARCHAR(20), Quantity INT);
CREATE TABLE T (Item VARCHAR(20) PRIMARY KEY, Price INT);
CREATE INDEX r_item ON R (Item);
CREATE INDEX s_item ON S (Item);
CREATE INDEX t_item ON T (Item);
CREATE VIEW Revenue (Item, Total) AS
SELECT T.Item, SUM(Quantity * Price)
FROM R, S, T
WHERE R.Item = S.Item AND S.Item = T.Item
GROUP BY T.Item
HAVING SUM(Quantity * Price) > 40000;
`

const (
	fig5Items      = 1000
	fig5RPerItem   = 4
	fig5SPerItem   = 5
	fig5Hot        = 16 // every update lands on one of these items
	fig5ExtraSales = 64 // benchmark-owned sales per hot item, churned in FIFO order
	fig5Window     = 64
)

func fig5Item(i int) string         { return fmt.Sprintf("item%04d", i) }
func fig5Price0(i int) int64        { return int64(10 + i%7) }
func fig5ExtraQty(k int) int64      { return int64(1 + k%5) }
func fig5ExtraName(seq int) string  { return fmt.Sprintf("x%07d", seq) }
func fig5ExtraSeq0(item, k int) int { return item*fig5ExtraSales + k }
func fig5Types() (modT, insS, delS *txn.Type) {
	modT = &txn.Type{Name: ">T", Weight: 0.8, Updates: []txn.RelUpdate{
		{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}}
	insS = &txn.Type{Name: "+S", Weight: 0.1, Updates: []txn.RelUpdate{
		{Rel: "S", Kind: txn.Insert, Size: 1}}}
	delS = &txn.Type{Name: "-S", Weight: 0.1, Updates: []txn.RelUpdate{
		{Rel: "S", Kind: txn.Delete, Size: 1}}}
	return
}

// fig5Load renders the initial contents. Each hot item carries 64
// extra sales beyond its 5, so with the stream below deleting one
// benchmark-owned sale for every one it inserts, a hot item's join
// fan-out stays at 4 × 69 (or 70) rows for the whole run and the cost
// of a window does not depend on how long the run has lasted.
func fig5Load() string {
	r, s, t := &bulkInsert{table: "R"}, &bulkInsert{table: "S"}, &bulkInsert{table: "T"}
	for i := 0; i < fig5Items; i++ {
		item := fig5Item(i)
		t.row("('%s', %d)", item, fig5Price0(i))
		for j := 0; j < fig5RPerItem; j++ {
			r.row("('r%04d_%d', '%s')", i, j, item)
		}
		for j := 0; j < fig5SPerItem; j++ {
			s.row("('s%04d_%d', '%s', %d)", i, j, item, 1+(i+j)%5)
		}
		if i < fig5Hot {
			for k := 0; k < fig5ExtraSales; k++ {
				s.row("('%s', '%s', %d)", fig5ExtraName(fig5ExtraSeq0(i, k)), item, fig5ExtraQty(k))
			}
		}
	}
	return r.String() + s.String() + t.String()
}

type fig5Kind uint8

const (
	fig5Modify fig5Kind = iota
	fig5Insert
	fig5Delete
)

// fig5Op is one generated transaction, before it becomes a delta.
type fig5Op struct {
	kind     fig5Kind
	item     int
	old, new int64  // prices, for a modify
	sale     string // sale name, for an insert or delete
	qty      int64
}

func (o fig5Op) String() string {
	switch o.kind {
	case fig5Modify:
		return fmt.Sprintf("T %d %d>%d", o.item, o.old, o.new)
	case fig5Insert:
		return fmt.Sprintf("+S %s %d %d", o.sale, o.item, o.qty)
	default:
		return fmt.Sprintf("-S %s %d %d", o.sale, o.item, o.qty)
	}
}

type fig5Sale struct {
	name string
	qty  int64
}

// fig5Gen draws the transaction stream from the seed alone: 80 % price
// changes on a hot item; the other 20 % alternate strictly between
// inserting a sale on a hot item and deleting the oldest
// benchmark-owned sale of that same item. It never reads the database;
// prices and the per-item sale queues are its own model.
type fig5Gen struct {
	rng       *rand.Rand
	price     [fig5Hot]int64
	sales     [fig5Hot][]fig5Sale // oldest first
	nextSale  int
	deleteOn  int // item whose oldest sale the next churn op deletes
	deleteDue bool
}

func newFig5Gen(seed int64) *fig5Gen {
	g := &fig5Gen{rng: rand.New(rand.NewSource(seed)), nextSale: fig5Hot * fig5ExtraSales}
	for i := 0; i < fig5Hot; i++ {
		g.price[i] = fig5Price0(i)
		for k := 0; k < fig5ExtraSales; k++ {
			g.sales[i] = append(g.sales[i], fig5Sale{fig5ExtraName(fig5ExtraSeq0(i, k)), fig5ExtraQty(k)})
		}
	}
	return g
}

func (g *fig5Gen) next() fig5Op {
	if g.rng.Intn(5) != 0 {
		item := g.rng.Intn(fig5Hot)
		old := g.price[item]
		next := int64(10 + g.rng.Intn(97))
		if next == old {
			next = 10 + (next-9)%97
		}
		g.price[item] = next
		return fig5Op{kind: fig5Modify, item: item, old: old, new: next}
	}
	if g.deleteDue {
		g.deleteDue = false
		q := g.sales[g.deleteOn]
		s := q[0]
		g.sales[g.deleteOn] = q[1:]
		return fig5Op{kind: fig5Delete, item: g.deleteOn, sale: s.name, qty: s.qty}
	}
	item := g.rng.Intn(fig5Hot)
	s := fig5Sale{fig5ExtraName(g.nextSale), int64(1 + g.rng.Intn(5))}
	g.nextSale++
	g.sales[item] = append(g.sales[item], s)
	g.deleteOn, g.deleteDue = item, true
	return fig5Op{kind: fig5Insert, item: item, sale: s.name, qty: s.qty}
}

// fig5Slot is one reusable window position: its deltas, update map and
// tuple backing arrays are rewritten in place the next time the
// position comes round, so the timed loop adds no generator garbage.
// That is safe under the pipeline's ownership rule: a transaction's
// deltas are dead once ApplyBatch returns, and whatever is kept longer
// (relation rows, WAL records, hub events) is cloned or encoded first.
type fig5Slot struct {
	dT, dS     *delta.Delta
	updT, updS map[string]*delta.Delta
	oldT, newT value.Tuple
	sT         value.Tuple
}

// fig5 is the fig5-batch64 workload, and with durable set,
// fig5-batch64-wal.
type fig5 struct {
	engine
	durable bool
	gen     *fig5Gen
	items   [fig5Hot]value.Value

	modT, insS, delS *txn.Type
	window           []txn.Transaction
	slots            []fig5Slot

	// Traced runs only.
	io        ioSplit
	coalescer delta.Coalescer
	updates   []map[string]*delta.Delta
	unitsIn   int64
	unitsOut  int64
	windows   int
}

func setupFig5(durable bool) setupFunc {
	return func(cfg config, tr *tracer, dir string) (workload, error) {
		w := &fig5{durable: durable, gen: newFig5Gen(cfg.seed)}
		w.tr = tr
		w.modT, w.insS, w.delS = fig5Types()
		if err := w.open(fig5Schema, fig5Load(), []string{"Revenue"},
			[]*txn.Type{w.modT, w.insS, w.delS}); err != nil {
			return nil, err
		}
		if durable {
			if err := w.attachWAL(dir); err != nil {
				return nil, err
			}
		}
		for i := range w.items {
			w.items[i] = value.NewString(fig5Item(i))
		}
		w.window = make([]txn.Transaction, fig5Window)
		w.slots = make([]fig5Slot, fig5Window)
		sT := w.db.Catalog.MustGet("S").Schema
		tT := w.db.Catalog.MustGet("T").Schema
		for i := range w.slots {
			s := &w.slots[i]
			s.dT, s.dS = delta.New(tT), delta.New(sT)
			s.updT = map[string]*delta.Delta{"T": s.dT}
			s.updS = map[string]*delta.Delta{"S": s.dS}
			s.oldT, s.newT, s.sT = make(value.Tuple, 2), make(value.Tuple, 2), make(value.Tuple, 3)
		}
		return w, nil
	}
}

// fill writes op into window position i.
func (w *fig5) fill(i int, op fig5Op) {
	s, t := &w.slots[i], &w.window[i]
	if op.kind == fig5Modify {
		s.oldT[0], s.oldT[1] = w.items[op.item], value.NewInt(op.old)
		s.newT[0], s.newT[1] = w.items[op.item], value.NewInt(op.new)
		s.dT.Changes = s.dT.Changes[:0]
		s.dT.Modify(s.oldT, s.newT, 1)
		t.Type, t.Updates = w.modT, s.updT
		return
	}
	s.sT[0], s.sT[1], s.sT[2] = value.NewString(op.sale), w.items[op.item], value.NewInt(op.qty)
	s.dS.Changes = s.dS.Changes[:0]
	if op.kind == fig5Insert {
		s.dS.Insert(s.sT, 1)
		t.Type, t.Updates = w.insS, s.updS
	} else {
		s.dS.Delete(s.sT, 1)
		t.Type, t.Updates = w.delS, s.updS
	}
}

// step generates and applies one window of 64 transactions. The window
// is visible to readers of the views when ApplyBatch returns.
func (w *fig5) step() (int, time.Duration, error) {
	id := w.tr.start(layerBench, "generate")
	for i := range w.window {
		w.fill(i, w.gen.next())
	}
	w.tr.end(id)
	w.attempted += fig5Window

	if w.tr != nil {
		// The delta layer on its own: the same window through a
		// standalone coalescer, which leaves its input untouched.
		w.updates = w.updates[:0]
		for i := range w.window {
			w.updates = append(w.updates, w.window[i].Updates)
			for _, d := range w.window[i].Updates {
				w.unitsIn += signedUnits(d)
			}
		}
		id := w.tr.start(layerDelta, "Coalesce (standalone)")
		w.coalescer.Coalesce(w.updates)
		w.tr.end(id)
	}

	id = w.tr.start(layerMaintain, "ApplyBatch")
	t0 := time.Now()
	rep, err := w.sys.M.ApplyBatch(w.window)
	visible := time.Since(t0)
	w.tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	if w.tr != nil {
		w.windows++
		w.io.addBatch(rep)
		for _, rd := range rep.Merged {
			w.unitsOut += signedUnits(rd.Delta)
		}
	}
	if w.durable && rep.LSN == 0 {
		w.fail("durable window acknowledged without an LSN")
	}
	return fig5Window, visible, nil
}

// signedUnits is the netting currency of the delta package: per
// change, |count| for each tuple side present.
func signedUnits(d *delta.Delta) int64 {
	var n int64
	for _, c := range d.Changes {
		k := c.Count
		if k < 0 {
			k = -k
		}
		if c.Old != nil {
			n += k
		}
		if c.New != nil {
			n += k
		}
	}
	return n
}

func (w *fig5) begin() {
	w.io, w.windows, w.unitsIn, w.unitsOut = ioSplit{}, 0, 0, 0
}

func (w *fig5) halfway() error {
	if !w.durable {
		return nil
	}
	return w.checkpoint()
}

func (w *fig5) finish() {
	w.checkDrift()
	if w.durable {
		w.checkRecovery([]string{"Revenue"})
	}
}

func (w *fig5) close() { w.closeWAL() }

func (w *fig5) layers(l *layerReport) {
	l.windows = w.windows
	l.io = w.io
	l.unitsIn, l.unitsOut = w.unitsIn, w.unitsOut
}
