// The Figure 5 hot-item stream fixture: the sales schema under a skewed
// update stream (price changes on a small item set, with a trickle of
// new sales). Batching pays twice here: repeated modifications of the
// same hot tuple annihilate within a window before any propagation, and
// the track-prefix queries are posed once per window instead of once
// per transaction. The count tests beside BenchmarkWindow64 drive it;
// timings live in benchmark/ (BENCHMARK.json).
package paper

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// Throughput is a maintained Figure 5 system plus a deterministic
// hot-item workload generator. The generator never consults database
// state, so the same stream can be replayed per-transaction or in
// windows and must land on identical view contents.
type Throughput struct {
	db *corpus.Database
	m  *maintain.Maintainer
	d  *dag.DAG

	hot   []string         // hot item names (all T modifications hit these)
	price map[string]int64 // locally tracked current T.Price per item
	seq   int

	typeModT *txn.Type
	typeInsS *txn.Type

	// Reusable window machinery for the batched path: the transaction
	// slice and one generator slot per position, each owning its deltas,
	// update maps and tuple backing arrays. A slot's memory is rewritten
	// in place the next time its position recurs, which is safe under the
	// pipeline's ownership contract: transaction deltas (like the window
	// report) are dead once the next ApplyBatch begins, and everything
	// stored longer — relation state, WAL records — is cloned or encoded
	// before then.
	wbuf  []txn.Transaction
	slots []txnSlot
	idbuf []byte // sale-id scratch

	// maint sums the page I/O of maintenance proper over every run:
	// queries, views and the root, without the base relations' own
	// apply (the split of maintain.BatchReport).
	maint int64
}

// txnSlot is one reusable transaction generator position.
type txnSlot struct {
	dT, dS     *delta.Delta
	updT, updS map[string]*delta.Delta
	oldT, newT value.Tuple // hot-item modify tuples (2 cols)
	sT         value.Tuple // sale insert tuple (3 cols)
}

// NewThroughput builds the Figure 5 database, expands its DAG and marks
// every non-leaf equivalence node as materialized: no optimizer picks
// that set, but it puts every operator's delta path and every view's
// apply under the counts the tests take.
func NewThroughput(cfg corpus.Figure5Config) (*Throughput, error) {
	return newThroughput(cfg, false)
}

// NewThroughputChosen is NewThroughput over the view set the optimizer
// chooses for the stream's own mix (80 % price changes, 20 % new
// sales), by the exact branch-and-bound search.
func NewThroughputChosen(cfg corpus.Figure5Config) (*Throughput, error) {
	return newThroughput(cfg, true)
}

func newThroughput(cfg corpus.Figure5Config, chosen bool) (*Throughput, error) {
	db := corpus.Figure5Database(cfg)
	d, err := dag.FromTree(db.Figure5View(0))
	if err != nil {
		return nil, err
	}
	if _, err := d.Expand(rules.Default(), 400); err != nil {
		return nil, err
	}
	modT := &txn.Type{Name: ">T", Weight: 0.8, Updates: []txn.RelUpdate{
		{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}}
	insS := &txn.Type{Name: "+S", Weight: 0.2, Updates: []txn.RelUpdate{
		{Rel: "S", Kind: txn.Insert, Size: 1}}}
	vs := tracks.RootSet(d)
	if chosen {
		opt := core.New(d, cost.PageIO{}, []*txn.Type{modT, insS})
		opt.Parallelism = 1
		res, err := opt.Parallel()
		if err != nil {
			return nil, err
		}
		vs = res.Best.Set
	} else {
		for _, e := range d.NonLeafEqs() {
			vs[e.ID] = true
		}
	}
	m, err := maintain.New(d, db.Store, cost.PageIO{}, vs)
	if err != nil {
		return nil, err
	}

	hotN := 8
	if hotN > cfg.Items {
		hotN = cfg.Items
	}
	th := &Throughput{
		db:       db,
		m:        m,
		d:        d,
		price:    map[string]int64{},
		typeModT: modT,
		typeInsS: insS,
	}
	for i := 0; i < hotN; i++ {
		item := fmt.Sprintf("item%03d", i)
		th.hot = append(th.hot, item)
		th.price[item] = int64(10 + i%7) // matches Figure5Database seeding
	}
	return th, nil
}

// nextTxn deterministically draws the next transaction: 80% hot-item
// price modifications, 20% new-sale inserts.
func (th *Throughput) nextTxn() txn.Transaction {
	seq := th.seq
	th.seq++
	if seq%5 == 4 { // new sale
		sDef := th.db.Catalog.MustGet("S")
		item := th.hot[(seq*3)%len(th.hot)]
		d := delta.New(sDef.Schema)
		d.Insert(value.Tuple{
			value.NewString(fmt.Sprintf("sx%06d", seq)),
			value.NewString(item),
			value.NewInt(int64(1 + seq%5)),
		}, 1)
		return txn.Transaction{Type: th.typeInsS, Updates: map[string]*delta.Delta{"S": d}}
	}
	// Hot-item price change.
	tDef := th.db.Catalog.MustGet("T")
	item := th.hot[seq%len(th.hot)]
	old := th.price[item]
	next := int64(10 + (seq*7+3)%97)
	if next == old {
		next++
	}
	th.price[item] = next
	d := delta.New(tDef.Schema)
	d.Modify(
		value.Tuple{value.NewString(item), value.NewInt(old)},
		value.Tuple{value.NewString(item), value.NewInt(next)},
		1)
	return txn.Transaction{Type: th.typeModT, Updates: map[string]*delta.Delta{"T": d}}
}

// fillTxn writes the next transaction of the same deterministic stream
// into slot i of the reused window. It allocates only on a position's
// first use — plus the one string per new sale id that the stored
// relation genuinely retains — so the batched measurement loop adds no
// generator garbage to the timed window.
func (th *Throughput) fillTxn(t *txn.Transaction, i int) {
	seq := th.seq
	th.seq++
	s := &th.slots[i]
	if seq%5 == 4 { // new sale
		if s.dS == nil {
			s.dS = delta.New(th.db.Catalog.MustGet("S").Schema)
			s.updS = map[string]*delta.Delta{"S": s.dS}
			s.sT = make(value.Tuple, 3)
		}
		item := th.hot[(seq*3)%len(th.hot)]
		s.sT[0] = value.NewString(string(appendSaleID(th.idbuf[:0], seq)))
		s.sT[1] = value.NewString(item)
		s.sT[2] = value.NewInt(int64(1 + seq%5))
		s.dS.Changes = s.dS.Changes[:0]
		s.dS.Insert(s.sT, 1)
		t.Type, t.Updates = th.typeInsS, s.updS
		return
	}
	if s.dT == nil {
		s.dT = delta.New(th.db.Catalog.MustGet("T").Schema)
		s.updT = map[string]*delta.Delta{"T": s.dT}
		s.oldT = make(value.Tuple, 2)
		s.newT = make(value.Tuple, 2)
	}
	item := th.hot[seq%len(th.hot)]
	old := th.price[item]
	next := int64(10 + (seq*7+3)%97)
	if next == old {
		next++
	}
	th.price[item] = next
	s.oldT[0], s.oldT[1] = value.NewString(item), value.NewInt(old)
	s.newT[0], s.newT[1] = value.NewString(item), value.NewInt(next)
	s.dT.Changes = s.dT.Changes[:0]
	s.dT.Modify(s.oldT, s.newT, 1)
	t.Type, t.Updates = th.typeModT, s.updT
}

// appendSaleID renders the "sx%06d" sale id without fmt.
func appendSaleID(b []byte, seq int) []byte {
	b = append(b, "sx"...)
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(seq), 10)
	for pad := 6 - len(digits); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// Run executes n transactions of the workload in windows of size batch
// (batch <= 1 is per-transaction Apply, a window of one — the baseline
// the pipeline is measured against) and returns the page I/Os charged.
func (th *Throughput) Run(n, batch int) (storage.IOCounter, error) {
	io0 := th.db.Store.IO.Snapshot()
	if batch <= 1 {
		for i := 0; i < n; i++ {
			t := th.nextTxn()
			rep, err := th.m.Apply(t.Type, t.Updates)
			if err != nil {
				return storage.IOCounter{}, err
			}
			th.addMaint(rep)
		}
		return th.db.Store.IO.Snapshot().Sub(io0), nil
	}
	for done := 0; done < n; {
		size := batch
		if n-done < size {
			size = n - done
		}
		if cap(th.wbuf) < size {
			th.wbuf = make([]txn.Transaction, size)
			th.slots = make([]txnSlot, size)
		}
		window := th.wbuf[:size]
		for i := range window {
			th.fillTxn(&window[i], i)
		}
		rep, err := th.m.ApplyBatch(window)
		if err != nil {
			return storage.IOCounter{}, err
		}
		th.addMaint(rep)
		done += size
	}
	return th.db.Store.IO.Snapshot().Sub(io0), nil
}

func (th *Throughput) addMaint(rep *maintain.BatchReport) {
	th.maint += rep.QueryIO.Total() + rep.ViewIO.Total() + rep.RootIO.Total()
}

// MaintenanceIO is the page I/O of maintenance proper (queries, views,
// root) over every Run so far: Run's total without the base relations'
// apply, whose page writes follow where new rows fall on pages.
func (th *Throughput) MaintenanceIO() int64 { return th.maint }

// Drift verifies every materialized view against full recomputation,
// returning a description of the first mismatch ("" when consistent).
func (th *Throughput) Drift() (string, error) {
	for _, e := range th.d.NonLeafEqs() {
		if !th.m.VS[e.ID] {
			continue
		}
		drift, err := th.m.Drift(e)
		if err != nil {
			return "", err
		}
		if drift != "" {
			return fmt.Sprintf("node %s: %s", e, drift), nil
		}
	}
	return "", nil
}
