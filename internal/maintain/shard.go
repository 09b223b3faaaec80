package maintain

import (
	"fmt"
	"sort"
	"sync"
	"time"

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

// obsShardSkew is max/mean of the signed-change units routed per shard
// in the last window — 1.0 is a perfectly balanced window, Effective×
// means one shard got everything.
var obsShardSkew = obs.G("maintain.shard.skew")

// ShardSetup is one shard's fully built engine substrate: an expanded
// DAG, the catalog of base relations and the store holding them. A
// shard factory returns a fresh, fully populated setup per call; the
// DAG expansion must be deterministic so equivalence-node IDs align
// across shards (NewSharded verifies this by canonical label).
type ShardSetup struct {
	D     *dag.DAG
	Cat   *catalog.Catalog
	Store *storage.Store
}

// ShardedConfig configures NewSharded.
type ShardedConfig struct {
	// Shards is the requested shard count (>= 1). Analysis may fall
	// back to an effective count of 1 (see Partitioning.Reason).
	Shards int
	// PartitionBy is the bare partition column name; "" auto-chooses
	// via ChoosePartitionColumn.
	PartitionBy string
	// VS is the materialized view set, identical on every shard.
	// Required: the optimizer runs once globally, not per shard, so
	// shard-local statistics cannot diverge the view sets.
	VS tracks.ViewSet
}

// shard is one shard-local pipeline with its observability handles.
type shard struct {
	setup   *ShardSetup
	m       *Maintainer
	applyNs *obs.Histogram
	routed  *obs.Counter
}

// Sharded is N shard-local maintenance pipelines behind one ApplyBatch:
// each window is split by the tuple router and the shard pipelines run
// in parallel, each owning its storage segment and plan cache. Every
// materialized view is shard-local (a view set that is not falls back to
// one shard), so a view's global contents are the bag union of its
// shard parts. Like Maintainer, Sharded is single-writer: one ApplyBatch
// at a time.
type Sharded struct {
	// D is the template DAG (shard 0's); all eq-node arguments to
	// Contents/Drift resolve by ID against every shard.
	D *dag.DAG
	// VS is the shared materialized view set.
	VS tracks.ViewSet
	// Part records the partition analysis, including any fallback.
	Part *Partitioning
	// Committer, when set, makes every window durable as Maintainer's
	// does: ApplyBatch hands it the whole window's coalesced base deltas
	// before the shards run and joins its fence after they finish. The
	// shard maintainers have none.
	Committer WindowCommitter

	shards []*shard
	router *Router

	// Window-causal tracing state, single-writer as on Maintainer:
	// spanParent is set by a replay, windowSpan at the top of ApplyBatch.
	spanParent uint64
	windowSpan uint64

	// Cross-window recycled window scratch (DESIGN.md §14). Sharded is
	// single-writer, so the one report and the per-shard routing slices
	// are reset in place each window; the returned ShardedReport is valid
	// only until the next ApplyBatch.
	rep       ShardedReport
	per       [][]txn.Transaction
	errs      []error
	coalescer delta.Coalescer
	winBuf    []map[string]*delta.Delta
}

// WindowSpanID returns the current sharded window's root span ID, which
// the Committer's commit spans hang under.
func (s *Sharded) WindowSpanID() uint64 { return s.windowSpan }

// CommitterSlot returns the address of s.Committer; see
// Maintainer.CommitterSlot.
func (s *Sharded) CommitterSlot() *WindowCommitter { return &s.Committer }

// ShardedReport describes one maintained window across all shards.
type ShardedReport struct {
	// Size is the transaction count of the window.
	Size int
	// LSN is the window's commit LSN (0 without a Committer).
	LSN uint64
	// Shards holds each shard's BatchReport (nil for shards the window
	// did not touch).
	Shards []*BatchReport
	// Routed is the signed-change units routed to each shard.
	Routed []int64
	// Skew is max/mean of Routed over shards that exist (0 for empty
	// windows).
	Skew float64
}

// NewSharded builds a sharded maintainer: it calls factory once per
// effective shard, restricts each setup's base relations to the shard's
// partition, and materializes the shared view set on each shard. The
// partition analysis (and its possible fallback to one shard) is
// exposed as .Part.
func NewSharded(factory func() (*ShardSetup, error), cfg ShardedConfig) (*Sharded, error) {
	return NewShardedRestored(factory, cfg, RestoreOptions{})
}

// NewShardedRestored builds like NewSharded, but each shard seeds its
// views from opts as NewRestored does, looking each one up under its
// sharded checkpoint name (see Snapshot). Recovery's factory returns
// setups holding the checkpoint's base relations, which are partitioned
// here as a fresh build's are.
func NewShardedRestored(factory func() (*ShardSetup, error), cfg ShardedConfig, opts RestoreOptions) (*Sharded, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("maintain: NewSharded requires Shards >= 1, got %d", cfg.Shards)
	}
	if cfg.VS == nil {
		return nil, fmt.Errorf("maintain: NewSharded requires a view set")
	}
	template, err := factory()
	if err != nil {
		return nil, fmt.Errorf("maintain: shard factory: %w", err)
	}
	col := cfg.PartitionBy
	if col == "" {
		col = ChoosePartitionColumn(template.D, cfg.VS)
	}
	part := AnalyzePartitioning(template.D, cfg.VS, col, cfg.Shards)
	eff := part.Effective

	setups := make([]*ShardSetup, eff)
	setups[0] = template
	for i := 1; i < eff; i++ {
		s, err := factory()
		if err != nil {
			return nil, fmt.Errorf("maintain: shard %d factory: %w", i, err)
		}
		if err := sameDAG(template.D, s.D, cfg.VS); err != nil {
			return nil, fmt.Errorf("maintain: shard %d: %w", i, err)
		}
		setups[i] = s
	}

	router := part.NewRouter()
	if eff > 1 {
		for i, s := range setups {
			for _, name := range s.Cat.Names() {
				rel, ok := s.Store.Get(name)
				if !ok {
					return nil, fmt.Errorf("maintain: shard %d: relation %q not in store", i, name)
				}
				keep := i
				rel.RetainWhere(func(t value.Tuple, _ int64) bool {
					return router.Route(name, t) == keep
				})
				rel.RefreshStats()
			}
		}
	}

	s := &Sharded{
		D:      template.D,
		VS:     cfg.VS,
		Part:   part,
		router: router,
	}
	for i, su := range setups {
		ro := opts.renamed(func(name string) string { return part.shardViewName(name, i) })
		m, err := NewRestored(su.D, su.Store, cost.PageIO{}, cfg.VS.Clone(), ro)
		if err != nil {
			return nil, fmt.Errorf("maintain: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, &shard{
			setup:   su,
			m:       m,
			applyNs: obs.H(fmt.Sprintf("maintain.shard%02d.apply.ns", i)),
			routed:  obs.C(fmt.Sprintf("maintain.shard%02d.routed_units", i)),
		})
	}
	return s, nil
}

// sameDAG verifies two independently built DAGs agree on every
// materialized node: same ID, same canonical representative label. A
// mismatch means the factory is not deterministic, which would silently
// corrupt cross-shard unions.
func sameDAG(a, b *dag.DAG, vs tracks.ViewSet) error {
	byID := map[int]*dag.EqNode{}
	for _, e := range b.Eqs() {
		byID[e.ID] = e
	}
	for _, e := range a.NonLeafEqs() {
		if !vs[e.ID] {
			continue
		}
		o, ok := byID[e.ID]
		if !ok {
			return fmt.Errorf("non-deterministic shard factory: node %s missing", e)
		}
		if a.RepTree(e).Label() != b.RepTree(o).Label() {
			return fmt.Errorf("non-deterministic shard factory: node %s diverged:\n  %s\n  %s",
				e, a.RepTree(e).Label(), b.RepTree(o).Label())
		}
	}
	return nil
}

// NumShards returns the effective shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Route exposes the tuple router (tests).
func (s *Sharded) Route(rel string, t value.Tuple) int {
	return s.router.Route(rel, t)
}

// ApplyBatch maintains one window: it hands the Committer the window's
// coalesced base deltas, splits every transaction's deltas by the tuple
// router, runs the shard pipelines in parallel (each coalesces, plans
// and applies its own sub-window), and finally joins the commit fence.
// The window is one log record, so it is durable whole or not at all.
func (s *Sharded) ApplyBatch(txns []txn.Transaction) (*ShardedReport, error) {
	n := len(s.shards)
	wt := obs.StartWindow("maintain.window", s.spanParent)
	s.windowSpan = wt.RootID()
	obs.Flight().Record(obs.EvWindowOpen, 0, wt.Seq(), uint64(len(txns)), wt.RootID())
	defer wt.Finish()
	// Pipelined group commit, as on Maintainer: the record's fsync runs
	// under the shards' work, and an early error return still joins it.
	var wait func() (uint64, error)
	defer func() {
		if wait != nil {
			wait()
		}
	}()
	if s.Committer != nil {
		s.winBuf = s.winBuf[:0]
		for _, t := range txns {
			s.winBuf = append(s.winBuf, t.Updates)
		}
		if merged := s.coalescer.Coalesce(s.winBuf); len(merged) > 0 {
			wait = s.Committer.BeginWindow(merged, len(txns))
		}
	}
	// Recycled window scratch: same report object every window, reset in
	// place (callers use it only until the next ApplyBatch).
	rep := &s.rep
	if rep.Shards == nil {
		rep.Shards = make([]*BatchReport, n)
		rep.Routed = make([]int64, n)
		s.per = make([][]txn.Transaction, n)
		s.errs = make([]error, n)
	}
	*rep = ShardedReport{Size: len(txns), Shards: rep.Shards, Routed: rep.Routed}
	for i := 0; i < n; i++ {
		rep.Shards[i] = nil
		rep.Routed[i] = 0
		s.per[i] = s.per[i][:0]
		s.errs[i] = nil
	}
	per := s.per
	if n == 1 {
		per[0] = append(per[0], txns...)
		for _, t := range txns {
			for _, d := range t.Updates {
				rep.Routed[0] += int64(d.Size())
			}
		}
	} else {
		for _, t := range txns {
			parts := delta.SplitUpdates(t.Updates, n, s.router.Route)
			for i, u := range parts {
				if len(u) == 0 {
					continue
				}
				per[i] = append(per[i], txn.Transaction{Type: t.Type, Updates: u})
				for _, d := range u {
					rep.Routed[i] += int64(d.Size())
				}
			}
		}
	}
	for i, sh := range s.shards {
		sh.routed.Add(rep.Routed[i])
		obs.Flight().Record(obs.EvShardRoute, uint16(i), wt.Seq(), uint64(rep.Routed[i]), 0)
	}
	rep.Skew = skew(rep.Routed)
	obsShardSkew.Set(rep.Skew)

	errs := s.errs
	var wg sync.WaitGroup
	for i := range s.shards {
		if len(per[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			// Parent the shard pipeline's window (and everything under
			// it) to this window's root: the shard maintainer is owned
			// by this goroutine for the duration, so the set is race-free.
			s.shards[i].m.spanParent = wt.RootID()
			rep.Shards[i], errs[i] = s.shards[i].m.ApplyBatch(per[i])
			s.shards[i].m.spanParent = 0
			s.shards[i].applyNs.Observe(time.Since(start).Nanoseconds())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("maintain: shard %d: %w", i, err)
		}
	}
	if s.Committer != nil {
		var lsn uint64
		var err error
		if wait != nil {
			lsn, err = wait()
			wait = nil
		} else {
			lsn, err = s.Committer.Commit(len(txns))
		}
		if err := fenced(&rep.LSN, wt.Seq(), lsn, err); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ReplayWindow applies one logged window as a window of one transaction
// whose trace hangs under parent; see Maintainer.ReplayWindow.
func (s *Sharded) ReplayWindow(w delta.Coalesced, parent uint64) error {
	s.spanParent = parent
	defer func() { s.spanParent = 0 }()
	_, err := s.ApplyBatch(replayed(w))
	return err
}

// Snapshot returns the sharded checkpoint state: the base relations are
// the union of the shards' partitions, and each shard's views appear
// under their sharded checkpoint names.
func (s *Sharded) Snapshot(rels []string) (*Snapshot, error) {
	snap := &Snapshot{ViewSetKey: s.VS.Key(), Base: make([][]storage.Row, len(rels)), Views: map[string]*ViewState{}}
	for i, sh := range s.shards {
		part, err := sh.m.Snapshot(rels)
		if err != nil {
			return nil, err
		}
		for j, rows := range part.Base {
			snap.Base[j] = append(snap.Base[j], rows...)
		}
		for name, v := range part.Views {
			snap.Views[s.Part.shardViewName(name, i)] = v
		}
	}
	return snap, nil
}

// skew is max/mean of the routed units (0 when nothing routed).
func skew(routed []int64) float64 {
	var max, sum int64
	for _, v := range routed {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(routed))
	return float64(max) / mean
}

// Contents returns the maintained global contents of a materialized
// node: the count-merged bag union of its shard parts. Rows are sorted
// by tuple, so equal states compare byte-identically at any shard count.
func (s *Sharded) Contents(e *dag.EqNode) []storage.Row {
	var rows []storage.Row
	byKey := map[string]int{}
	var enc value.KeyEncoder
	for _, sh := range s.shards {
		for _, r := range sh.m.Contents(e) {
			k := string(enc.Key(r.Tuple))
			if j, ok := byKey[k]; ok {
				rows[j].Count += r.Count
			} else {
				byKey[k] = len(rows)
				rows = append(rows, storage.Row{Tuple: r.Tuple, Count: r.Count})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].Tuple.Compare(rows[j].Tuple) < 0
	})
	return rows
}

// Violations returns the total multiplicity of a view's rows — the
// sharded form of the assertion-emptiness verdict (the paper's
// integrity constraints hold iff the assertion view is empty).
func (s *Sharded) Violations(e *dag.EqNode) int64 {
	var n int64
	for _, r := range s.Contents(e) {
		n += r.Count
	}
	return n
}

// Drift compares a materialized node's sharded contents against full
// recomputation over the union of the shard bases — the shard-count-
// independent oracle ("" when consistent).
func (s *Sharded) Drift(e *dag.EqNode) (string, error) {
	oracle := storage.NewStore()
	cat0 := s.shards[0].setup.Cat
	for _, name := range cat0.Names() {
		def, ok := cat0.Get(name)
		if !ok {
			return "", fmt.Errorf("maintain: sharded drift: unknown relation %q", name)
		}
		rel, err := oracle.Create(def)
		if err != nil {
			return "", err
		}
		for _, sh := range s.shards {
			r, ok := sh.setup.Store.Get(name)
			if !ok {
				return "", fmt.Errorf("maintain: shard drift: relation %q missing", name)
			}
			rel.Load(r.ScanFree())
		}
	}
	want, err := exec.NewFree(oracle).Eval(s.D.RepTree(e))
	if err != nil {
		return "", err
	}
	diff := map[string]int64{}
	var enc value.KeyEncoder
	for _, row := range s.Contents(e) {
		diff[string(enc.Key(row.Tuple))] += row.Count
	}
	for _, row := range want.Rows {
		diff[string(enc.Key(row.Tuple))] -= row.Count
	}
	for k, v := range diff {
		if v != 0 {
			return fmt.Sprintf("tuple %x off by %d", k, v), nil
		}
	}
	return "", nil
}
