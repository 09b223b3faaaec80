package maintain

import (
	"fmt"
	"sort"

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
	// Shards is the shard count (>= 1).
	Shards int
	// PartitionBy is the bare name of the column every base relation is
	// hash-partitioned on. Required; NewSharded states its precondition.
	PartitionBy string
	// VS is the materialized view set, identical on every shard.
	// Required: the optimizer runs once globally, not per shard, so
	// shard-local statistics cannot diverge the view sets.
	VS tracks.ViewSet
}

// shard is one shard-local pipeline.
type shard struct {
	setup *ShardSetup
	m     *Maintainer
}

// Sharded is N shard-local maintenance pipelines behind one ApplyBatch:
// each window is split by routing every tuple on the partition column,
// and the shard pipelines run one after another, each owning its
// storage segment and plan cache. A view's global contents are the bag
// union of its shard parts. Like Maintainer, Sharded is single-writer:
// one ApplyBatch at a time.
type Sharded struct {
	// D is the template DAG (shard 0's); all eq-node arguments to
	// Contents/Drift resolve by ID against every shard.
	D *dag.DAG
	// VS is the shared materialized view set.
	VS tracks.ViewSet
	// Committer, when set, makes every window durable as Maintainer's
	// does: ApplyBatch hands it the whole window's coalesced base deltas
	// before the shards run and joins its fence after they finish. The
	// shard maintainers have none.
	Committer WindowCommitter

	shards []*shard
	column string
	// pos is the partition column's position in each base relation.
	pos map[string]int
	enc value.KeyEncoder
	one [1]int

	// Window-causal tracing state, single-writer as on Maintainer:
	// spanParent is set by a replay, windowSpan at the top of ApplyBatch.
	spanParent uint64
	windowSpan uint64

	// Cross-window recycled window scratch (DESIGN.md §14). Sharded is
	// single-writer, so the one report and the per-shard sub-windows are
	// reset in place each window; the returned ShardedReport is valid
	// only until the next ApplyBatch.
	rep       ShardedReport
	per       [][]txn.Transaction
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
}

// NewSharded builds a sharded maintainer: it calls factory once per
// shard, keeps in each setup's base relations the rows that route to
// the shard, and materializes the shared view set on each shard.
//
// Every base relation must have the column cfg.PartitionBy; NewSharded
// returns an error otherwise. It proves nothing more, so the caller
// owes the precondition that makes each view the bag union of its
// shard parts: every join of the view set equates the column on both
// sides, and every aggregate groups on it.
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
	if cfg.PartitionBy == "" {
		return nil, fmt.Errorf("maintain: NewSharded requires a partition column")
	}
	template, err := factory()
	if err != nil {
		return nil, fmt.Errorf("maintain: shard factory: %w", err)
	}
	s := &Sharded{
		D:      template.D,
		VS:     cfg.VS,
		shards: make([]*shard, cfg.Shards),
		column: cfg.PartitionBy,
		pos:    map[string]int{},
		per:    make([][]txn.Transaction, cfg.Shards),
	}
	names := template.Cat.Names()
	for _, name := range names {
		def, _ := template.Cat.Get(name)
		if s.pos[name], err = def.Schema.Resolve(cfg.PartitionBy); err != nil {
			return nil, fmt.Errorf("maintain: NewSharded: relation %q: %w", name, err)
		}
	}

	for i := range s.shards {
		su := template
		if i > 0 {
			if su, err = factory(); err != nil {
				return nil, fmt.Errorf("maintain: shard %d factory: %w", i, err)
			}
			if err := sameDAG(template.D, su.D, cfg.VS); err != nil {
				return nil, fmt.Errorf("maintain: shard %d: %w", i, err)
			}
		}
		s.shards[i] = &shard{setup: su}
	}
	for i, sh := range s.shards {
		for _, name := range names {
			rel, ok := sh.setup.Store.Get(name)
			if !ok {
				return nil, fmt.Errorf("maintain: shard %d: relation %q not in store", i, name)
			}
			rel.RetainWhere(func(t value.Tuple, _ int64) bool { return s.route(name, t) == i })
			rel.RefreshStats()
		}
		ro := opts.renamed(func(name string) string { return s.viewName(name, i) })
		if sh.m, err = NewRestored(sh.setup.D, sh.setup.Store, cost.PageIO{}, cfg.VS.Clone(), ro); err != nil {
			return nil, fmt.Errorf("maintain: shard %d: %w", i, err)
		}
	}
	return s, nil
}

// route maps one tuple of rel to its shard: FNV-1a over the
// value.KeyEncoder bytes of its partition-column value, a pure function
// of the tuple, so a row lands on the same shard in every window, every
// process and at recovery.
func (s *Sharded) route(rel string, t value.Tuple) int {
	var key []byte
	if s.one[0] = s.pos[rel]; s.one[0] < len(t) {
		key = s.enc.ProjectedKey(t, s.one[:])
	} else {
		key = s.enc.Key(t) // shorter than rel's rows: route the whole tuple
	}
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(len(s.shards)))
}

// viewName is the checkpoint name of shard i's part of a view. It names
// the partitioning, so a checkpoint taken on another column or shard
// count holds no state for this shard and its views are recomputed
// rather than seeded with another partition's rows.
func (s *Sharded) viewName(view string, i int) string {
	return fmt.Sprintf("%s@%s:%d/%d", view, s.column, i, len(s.shards))
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

// ApplyBatch maintains one window: it hands the Committer the window's
// coalesced base deltas, splits every transaction's deltas by routing
// each tuple (delta.SplitDelta), runs the shard pipelines one after
// another on the caller's goroutine (each coalesces, plans and applies
// its own sub-window), and finally joins the commit fence. A shard's
// Coalesce nets exactly the rows the window's would have given it:
// netting is per tuple, and every occurrence of a tuple routes alike.
// The window is one log record, so it is durable whole or not at all.
func (s *Sharded) ApplyBatch(txns []txn.Transaction) (*ShardedReport, error) {
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
	s.rep = ShardedReport{Size: len(txns)}
	for i := range s.per {
		s.per[i] = s.per[i][:0]
	}
	parts := make([]map[string]*delta.Delta, len(s.shards))
	for _, t := range txns {
		for rel, d := range t.Updates {
			split := delta.SplitDelta(d, len(s.shards), func(tu value.Tuple) int { return s.route(rel, tu) })
			for i, p := range split {
				if p.Empty() {
					continue
				}
				if parts[i] == nil {
					parts[i] = map[string]*delta.Delta{}
				}
				parts[i][rel] = p
			}
		}
		for i, u := range parts {
			if u != nil {
				s.per[i] = append(s.per[i], txn.Transaction{Type: t.Type, Updates: u})
				parts[i] = nil
			}
		}
	}
	for i, sh := range s.shards {
		if len(s.per[i]) == 0 {
			continue
		}
		// Parent the shard pipeline's window (and everything under it)
		// to this window's root.
		sh.m.spanParent = wt.RootID()
		_, err := sh.m.ApplyBatch(s.per[i])
		sh.m.spanParent = 0
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
		if err := fenced(&s.rep.LSN, wt.Seq(), lsn, err); err != nil {
			return nil, err
		}
	}
	return &s.rep, nil
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
			snap.Views[s.viewName(name, i)] = v
		}
	}
	return snap, nil
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
