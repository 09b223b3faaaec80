// Package maintain is the runtime incremental-maintenance engine: it
// materializes a chosen view set into the storage engine and, for each
// transaction, computes deltas along the cost-chosen update track —
// posing exactly the queries the cost model predicted — and applies them,
// with real page-I/O accounting. Running it next to the estimator lets
// the benchmarks report measured page I/Os beside estimated ones.
package maintain

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/dag"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tracks"
	"repro/internal/txn"
	"repro/internal/value"
)

// obsDeltaChanges records the cardinality of every delta computed along
// an update track (leaves excluded — they are the transaction's input,
// not propagation output). The distribution shows how deltas grow or
// shrink as they climb the track, the quantity the paper's per-node
// update charges are proportional to.
var obsDeltaChanges = obs.H("maintain.delta.changes")

// obsApplyNs records end-to-end apply latency per ApplyBatch window,
// in nanoseconds — the histogram the benchmark rows report
// p50/p99 from.
var obsApplyNs = obs.H("maintain.apply.ns")

// Arena traffic counters: bytes served from blocks retained across
// windows (reused) versus blocks newly allocated within their window
// (grown). A healthy steady state shows reused climbing and grown flat
// — the window working set fits the retained blocks and the allocator
// is never entered.
var (
	obsArenaReused = obs.C("maintain.arena.reused_bytes")
	obsArenaGrown  = obs.C("maintain.arena.grown_bytes")
)

// View is one materialized equivalence node with its backing store and
// (for aggregates and duplicate elimination) the live-count sidecar that
// detects group birth and death. The sidecar plays the role of the
// counting algorithm's hidden duplicate counts; it rides on the view's
// pages and is not charged separately.
type View struct {
	Eq  *dag.EqNode
	Rel *storage.Relation
	// aggOp is the aggregate operation under Eq whose child the live
	// counts refer to (nil when Eq has no aggregate alternative).
	aggOp *dag.OpNode
	// distinctOp likewise for duplicate elimination.
	distinctOp *dag.OpNode
	// live maps a group key (aggregates) or tuple key (distinct) to the
	// bag multiplicity in the relevant child expression.
	live map[string]int64
	// stale marks keys whose live count is unknown: the view's delta was
	// computed through an operation other than aggOp/distinctOp, so the
	// tracked child's delta never materialized. Stale groups force the
	// full-group (queried) maintenance path until resynced.
	stale map[string]bool
	// pending carries post-transaction live counts computed by
	// aggregateDelta (incremental or full-group), applied by
	// updateSidecar; it also clears staleness for those keys.
	pending []delta.GroupLive
	// groupCols (the view's leading, group-by columns when aggOp is set),
	// enc and probeBuf are oldAggProbe's, kept here so a window allocates
	// none of them.
	groupCols []string
	enc       value.KeyEncoder
	probeBuf  []storage.Row
}

// WindowCommitter makes maintenance windows durable; the WAL's group
// commit implements it, for a Maintainer and a Sharded alike. ApplyBatch
// knows a window's net base deltas as soon as it has coalesced them —
// before any propagation work — so it hands them to BeginWindow, which
// posts them to the log's writer goroutine: the record is encoded,
// written and fsynced there while propagation, base apply and view
// apply proceed (a guarded window's once it is accepted). The log learns
// a window's deltas this way and no other. The returned wait is the
// commit fence: ApplyBatch blocks on it before acknowledging, so ack
// still implies durable; a fence that finds its record not yet taken
// writes it itself. Posting the window happens-before the writer reads
// it, and the writer's fsync happens-before the fence returns. A crash
// after the early fsync but before the ack recovers to one window past
// the last acknowledged state (lastAcked+1), which the recovery
// contract allows.
type WindowCommitter interface {
	// Commit covers a window that logs nothing — it coalesced to
	// nothing, or a guard rejected it — and returns the LSN as of which
	// everything handed to the log so far is durable.
	Commit(txns int) (uint64, error)
	// BeginWindow starts making the window durable from its coalesced
	// net deltas, which stay valid until wait returns.
	BeginWindow(w delta.Coalesced, txns int) (wait func() (uint64, error))
}

// WindowUpdate describes one successfully applied ApplyBatch window as
// seen by a window hook. A window a guard rejected is not applied and
// reaches no hook.
//
// Ownership: Deltas is the window report's delta map — arena-backed and
// recycled, valid ONLY for the duration of the hook call. A hook that
// retains any tuple or change past its return must deep-clone it first;
// the next window's arena reset invalidates everything the map points
// at. The hook runs on the window's goroutine, so heavy work belongs on
// the consumer's side of a queue, after cloning.
type WindowUpdate struct {
	// Seq numbers applied windows on this maintainer, starting at 1: the
	// feed of updates is exactly the sequence of state transitions.
	Seq uint64
	// LSN is the durability point covering the window (0 in-memory).
	LSN uint64
	// Txns is the window's transaction count.
	Txns int
	// Deltas maps equivalence-node IDs to the net change applied at
	// that node this window. Empty (but non-nil) for windows that
	// coalesced to nothing.
	Deltas map[int]*delta.Delta
}

// WindowHook observes applied windows; see WindowUpdate for the
// ownership contract. Installed via SetWindowHook; the server's
// changefeed/snapshot hub is the intended consumer.
type WindowHook func(WindowUpdate)

// Maintainer owns a view set over a store and keeps it incrementally
// maintained.
type Maintainer struct {
	D     *dag.DAG
	Store *storage.Store
	Cost  *tracks.Costing
	VS    tracks.ViewSet

	// Committer, when set, makes every applied window durable: ApplyBatch
	// hands it the coalesced window up front and joins its fence before
	// acknowledging. Nil means the engine runs in memory.
	Committer WindowCommitter

	// Guards are materialized views every window must leave empty
	// (Reject-mode assertions, paper §6). A window that would leave one
	// non-empty is decided after propagation and writes nothing; see
	// BatchReport.Rejected.
	Guards []*dag.EqNode

	// Workers is ignored: ApplyBatch applies views on the window's
	// goroutine. It remains only because benchmark/engine.go assigns it.
	Workers int

	views map[int]*View
	trees map[int]algebra.Node // memoized query trees per eq node

	// The plan cache (plan.go): the cost-chosen track per transaction-type
	// name, and the compiled step — with all propagation scratch — per
	// operation node. Both were built under view set planVS.
	plans  map[string]*trackPlan
	steps  map[*dag.OpNode]*planStep
	planVS string
	// The window's transactions folded by declared type (one entry per
	// distinct type), and the merged type's name built from the fold:
	// a merged window's plan is found by it, so a merged type is built
	// only for a window shape not seen under the current view set.
	winTypes txn.Window
	sigBuf   []byte

	// fpOrd numbers each class's structural fingerprint (index: class
	// ID; 0 unset), fpOrdinals each distinct fingerprint; memoBuf holds
	// the probe-memo key being looked up (memo.go).
	fpOrd      []uint32
	fpOrdinals map[string]uint32
	memoBuf    []byte

	// Per-window scratch, reset (not freed) between windows. The arena
	// backs every tuple propagation derives, which is why a report's
	// Deltas (and Merged) are documented valid only until the next
	// ApplyBatch on this maintainer.
	arena     value.Arena
	coalescer delta.Coalescer
	// nz is the one place propagation nets a delta: a join's whose inputs
	// both changed, and the inputs of Distinct and Diff.
	nz delta.Normalizer
	// netAll keeps every join delta (nothing StreamsInto an aggregate):
	// the oracle the differential tests compare streaming against.
	netAll bool
	// disableMQO turns off the per-window shared subplan memo (every
	// query goes back to storage): the per-query oracle the MQO
	// equivalence tests compare memo-shared propagation against.
	disableMQO bool

	winBuf []map[string]*delta.Delta
	mutBuf []storage.Mutation

	// Cross-window recycled report scratch (DESIGN.md §14): ApplyBatch
	// returns the same report object every window, reset in place — the
	// whole report (not just its Deltas) is valid only until the next
	// ApplyBatch on this maintainer.
	batchRep BatchReport
	winMemo  windowMemo

	// queryEv answers every query propagation poses; it outlives the
	// window only for its hash-join build table.
	queryEv exec.Evaluator

	// Window-causal tracing state. Both fields follow the single-writer
	// rule: spanParent is set by the caller (a Sharded window, which runs
	// its shards on its own goroutine, or a replay) before ApplyBatch
	// runs, windowSpan at the top of each window. Committers read windowSpan synchronously from
	// inside the window (BeginWindow/Commit are called on or joined by
	// the window's goroutine), so cross-goroutine commit spans can parent
	// to the window root without widening the WindowCommitter interface.
	spanParent uint64
	windowSpan uint64

	// typeStats caches per-transaction-type frequency/latency counter
	// handles by canonical type name, so the per-window accounting loop
	// allocates nothing in steady state.
	typeStats map[string]*typeStat

	// onWindow, when set, observes every applied window at its fence —
	// after the commit wait and view application, while the report's
	// deltas are still alive. winSeq numbers those windows.
	onWindow WindowHook
	winSeq   uint64

	// grouping is set while a Group's fn runs: ApplyBatch then hands
	// its accepted windows to grp instead of the Committer and the hook.
	grouping bool
	grp      group

	pubArenaReused, pubArenaGrown uint64
}

// obsTxns counts maintained transactions — the numerator of every
// txns/sec readout (mvtop polls it).
var obsTxns = obs.C("maintain.txns")

// typeStat is one transaction type's observed workload profile. These
// are the weights the paper's cost model takes as given (§2's f_i
// frequencies) and the ROADMAP's online re-optimizer consumes as
// measured: count is observed frequency, ns the maintenance time
// attributed to the type.
type typeStat struct {
	count *obs.Counter
	ns    *obs.Counter
	io    TypeIO
}

// TypeIO is the page I/O measured for one transaction type, split the
// way BatchReport splits it: the sums over the type's transactions, each
// carrying an equal share of its window's I/O (exact for windows of one;
// inside a coalesced window per-transaction I/O is not observable).
type TypeIO struct {
	Name                    string
	Txns                    int64
	Query, View, Root, Base float64
}

// Total is the type's measured page I/O across all four parts.
func (t TypeIO) Total() float64 { return t.Query + t.View + t.Root + t.Base }

// MeasuredIO returns the per-type page I/O of every window this
// maintainer applied successfully, sorted by type name: the measurement
// System.Explain prints beside the optimizer's estimate.
func (m *Maintainer) MeasuredIO() []TypeIO {
	out := make([]TypeIO, 0, len(m.typeStats))
	for _, st := range m.typeStats {
		if st.io.Txns > 0 {
			out = append(out, st.io)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// typeStatFor returns (registering on first use) the counters for one
// canonical transaction-type name.
func (m *Maintainer) typeStatFor(name string) *typeStat {
	if m.typeStats == nil {
		m.typeStats = map[string]*typeStat{}
	}
	st, ok := m.typeStats[name]
	if !ok {
		st = &typeStat{
			count: obs.C("maintain.txn_type." + name + ".count"),
			ns:    obs.C("maintain.txn_type." + name + ".ns"),
			io:    TypeIO{Name: name},
		}
		m.typeStats[name] = st
	}
	return st
}

// observeTxnTypes attributes a window's elapsed time across its
// transactions by type: each transaction counts once and carries an
// equal share of the window's wall time (per-txn attribution inside a
// coalesced window is not observable — the window is maintained as one
// unit), and of the page I/O rep reports for it (nil for a window that
// failed). It reads the window's fold (m.winTypes), so it does one
// counter Add per distinct type, not per transaction; each type's float
// sums still take the same addend once per transaction, so they are the
// same bits a per-transaction loop leaves. Zero allocations after the
// first window of each type.
func (m *Maintainer) observeTxnTypes(txns int, elapsed int64, rep *BatchReport) {
	if txns == 0 {
		return
	}
	obsTxns.Add(int64(txns))
	share := elapsed / int64(txns)
	var io TypeIO
	if rep != nil {
		n := float64(txns)
		io = TypeIO{Txns: 1,
			Query: float64(rep.QueryIO.Total()) / n, View: float64(rep.ViewIO.Total()) / n,
			Root: float64(rep.RootIO.Total()) / n, Base: float64(rep.BaseIO.Total()) / n}
	}
	for _, u := range m.winTypes.Uses() {
		name := "untyped"
		if u.Type != nil {
			name = u.Type.Name
		}
		st := m.typeStatFor(name)
		st.count.Add(int64(u.N))
		st.ns.Add(share * int64(u.N))
		st.io.Txns += io.Txns * int64(u.N)
		for range u.N {
			st.io.Query += io.Query
			st.io.View += io.View
			st.io.Root += io.Root
			st.io.Base += io.Base
		}
	}
}

// SetWindowHook installs (or, with nil, removes) the window hook: fn is
// called once per applied window at the window fence, after the commit
// wait and view application succeed. The WindowUpdate's delta map is
// valid only for the duration of the call; see the WindowUpdate
// ownership contract.
func (m *Maintainer) SetWindowHook(fn WindowHook) { m.onWindow = fn }

// violates reports whether a window's propagated deltas leave a guard
// non-empty: its stored bag cardinality plus its delta's signed count
// is above zero.
func (m *Maintainer) violates(deltas map[int]*delta.Delta) bool {
	for _, e := range m.Guards {
		var n int64
		if v, ok := m.views[e.ID]; ok {
			v.Rel.Iterate(func(row storage.Row) bool {
				n += row.Count
				return true
			})
		}
		if d := deltas[e.ID]; d != nil {
			for _, c := range d.Changes {
				switch {
				case c.IsInsert():
					n += max(c.Count, 1)
				case c.IsDelete():
					n -= max(c.Count, 1)
				}
			}
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// fireWindowHook advances the window sequence and invokes the hook.
func (m *Maintainer) fireWindowHook(lsn uint64, txns int, deltas map[int]*delta.Delta) {
	if m.onWindow == nil {
		return
	}
	m.winSeq++
	m.onWindow(WindowUpdate{Seq: m.winSeq, LSN: lsn, Txns: txns, Deltas: deltas})
}

// WindowSpanID returns the current window's root span ID. Committers
// call this from BeginWindow/Commit — both happen-after the window
// opened and happen-before the next one does — to parent their commit
// spans (whichever goroutine runs the fsync) to the window that staged
// the deltas.
func (m *Maintainer) WindowSpanID() uint64 { return m.windowSpan }

// CommitterSlot returns the address of m.Committer: the slot a WAL
// manager installs itself in, and clears on close.
func (m *Maintainer) CommitterSlot() *WindowCommitter { return &m.Committer }

// publishArenaStats pushes the arena's cumulative traffic into the obs
// registry as counter deltas.
func (m *Maintainer) publishArenaStats() {
	reused, grown := m.arena.Stats()
	if d := reused - m.pubArenaReused; d > 0 {
		obsArenaReused.Add(int64(d))
	}
	if d := grown - m.pubArenaGrown; d > 0 {
		obsArenaGrown.Add(int64(d))
	}
	m.pubArenaReused, m.pubArenaGrown = reused, grown
}

// ViewName is the storage name of a materialized equivalence node.
func ViewName(e *dag.EqNode) string { return fmt.Sprintf("view_N%d", e.ID) }

// New materializes the view set (initial materialization is not charged,
// matching the paper) and returns a ready maintainer.
func New(d *dag.DAG, st *storage.Store, model cost.Model, vs tracks.ViewSet) (*Maintainer, error) {
	return NewRestored(d, st, model, vs, RestoreOptions{})
}

// qualifyIndexCols maps bare index column names onto concrete schema
// columns (the first bare-name match): join-view schemas can carry the
// same bare name on both sides, whose values the equijoin makes equal, so
// any match indexes the same key.
func qualifyIndexCols(s *catalog.Schema, bare []string) []string {
	out := make([]string, 0, len(bare))
	for _, b := range bare {
		found := ""
		for _, c := range s.Cols {
			if c.Name == b {
				found = c.QName()
				break
			}
		}
		if found == "" {
			return nil
		}
		out = append(out, found)
	}
	return out
}

// initSidecar seeds live counts from the current child contents,
// evaluating the child's tree as rep builds it.
func (m *Maintainer) initSidecar(v *View, free *exec.Evaluator, rep func(*dag.EqNode) algebra.Node) error {
	if v.aggOp != nil {
		agg := v.aggOp.Template.(*algebra.Aggregate)
		child := v.aggOp.Children[0]
		res, err := free.Eval(rep(child))
		if err != nil {
			return err
		}
		pos := make([]int, len(agg.GroupBy))
		for i, g := range agg.GroupBy {
			j, err := res.Schema.Resolve(g)
			if err != nil {
				return err
			}
			pos[i] = j
		}
		var enc value.KeyEncoder
		for _, row := range res.Rows {
			v.live[string(enc.ProjectedKey(row.Tuple, pos))] += row.Count
		}
	}
	if v.distinctOp != nil {
		child := v.distinctOp.Children[0]
		res, err := free.Eval(rep(child))
		if err != nil {
			return err
		}
		var enc value.KeyEncoder
		for _, row := range res.Rows {
			v.live[string(enc.Key(row.Tuple))] += row.Count
		}
	}
	return nil
}

// ViewRel returns the backing relation of a materialized node.
func (m *Maintainer) ViewRel(e *dag.EqNode) (*storage.Relation, bool) {
	v, ok := m.views[e.ID]
	if !ok {
		return nil, false
	}
	return v.Rel, true
}

// Contents returns the current rows of a materialized node, uncharged.
func (m *Maintainer) Contents(e *dag.EqNode) []storage.Row {
	v, ok := m.views[e.ID]
	if !ok {
		return nil
	}
	return v.Rel.ScanFree()
}

// Report is the report of a one-transaction window; see BatchReport.
type Report = BatchReport

// Apply maintains the view set under one transaction — a window of one:
// updates maps base relation names to their deltas, t (which may be
// nil) is the declared type the update track is chosen for.
func (m *Maintainer) Apply(t *txn.Type, updates map[string]*delta.Delta) (*Report, error) {
	return m.ApplyBatch([]txn.Transaction{{Type: t, Updates: updates}})
}

func addIO(a, b storage.IOCounter) storage.IOCounter {
	return storage.IOCounter{
		IndexReads:  a.IndexReads + b.IndexReads,
		IndexWrites: a.IndexWrites + b.IndexWrites,
		PageReads:   a.PageReads + b.PageReads,
		PageWrites:  a.PageWrites + b.PageWrites,
	}
}

// updateSidecar folds the transaction's effects into a view's live
// counts. Three cases, in precedence order:
//
//  1. aggregateDelta left pending post-update counts (it went through
//     aggOp): apply them and clear staleness.
//  2. the tracked child's delta is available (the track passed through
//     it for any reason): fold the signed group counts, skipping keys
//     already stale.
//  3. only the view's own delta exists (computed through another
//     operation alternative): the affected keys' liveness is now
//     unknown — mark them stale so future maintenance recomputes them.
func (m *Maintainer) updateSidecar(v *View, deltas map[int]*delta.Delta, tr *tracks.Track) error {
	switch {
	case v.aggOp != nil:
		agg := v.aggOp.Template.(*algebra.Aggregate)
		if len(v.pending) > 0 {
			for _, g := range v.pending {
				k := v.enc.Key(g.Key)
				if n, ok := v.live[string(k)]; !ok || n != g.Live {
					v.live[string(k)] = g.Live
				}
				if len(v.stale) > 0 {
					delete(v.stale, string(k))
				}
			}
			v.pending = nil
			return nil
		}
		child := v.aggOp.Children[0]
		cd := deltas[child.ID]
		if !cd.Empty() {
			gc, err := cd.GroupCounts(agg.GroupBy)
			if err != nil {
				return err
			}
			for k, n := range gc {
				if !v.stale[k] {
					v.live[k] += n
				}
			}
			return nil
		}
		if own := deltas[v.Eq.ID]; !own.Empty() {
			markStaleGroups(v, own, len(agg.GroupBy))
		}
	case v.distinctOp != nil:
		child := v.distinctOp.Children[0]
		cd := deltas[child.ID]
		if !cd.Empty() {
			for k, n := range cd.TupleCounts() {
				if !v.stale[k] {
					v.live[k] += n
				}
			}
			return nil
		}
		if own := deltas[v.Eq.ID]; !own.Empty() {
			markStaleGroups(v, own, -1)
		}
	}
	return nil
}

// markStaleGroups invalidates the live counts of every key the view's own
// delta touches; nGroupCols < 0 means the whole tuple is the key.
func markStaleGroups(v *View, own *delta.Delta, nGroupCols int) {
	var enc value.KeyEncoder
	mark := func(t value.Tuple) {
		if t == nil {
			return
		}
		key := t
		if nGroupCols >= 0 && nGroupCols <= len(t) {
			key = t[:nGroupCols]
		}
		k := string(enc.Key(key))
		v.stale[k] = true
		delete(v.live, k)
	}
	for _, c := range own.Changes {
		mark(c.Old)
		mark(c.New)
	}
}

// Oracle recomputes a materialized node from scratch (uncharged) — the
// correctness baseline for tests.
func (m *Maintainer) Oracle(e *dag.EqNode) (*exec.Result, error) {
	return exec.NewFree(m.Store).Eval(m.D.RepTree(e))
}

// Drift compares a materialized view against full recomputation and
// returns a description of any mismatch ("" when consistent).
func (m *Maintainer) Drift(e *dag.EqNode) (string, error) {
	v, ok := m.views[e.ID]
	if !ok {
		return "", fmt.Errorf("maintain: %s is not materialized", e)
	}
	want, err := m.Oracle(e)
	if err != nil {
		return "", err
	}
	stored := map[string]int64{}
	var enc value.KeyEncoder
	v.Rel.Iterate(func(row storage.Row) bool {
		stored[string(enc.Key(row.Tuple))] += row.Count
		return true
	})
	for _, row := range want.Rows {
		stored[string(enc.Key(row.Tuple))] -= row.Count
	}
	for k, n := range stored {
		if n != 0 {
			return fmt.Sprintf("tuple %x off by %d", k, n), nil
		}
	}
	return "", nil
}
