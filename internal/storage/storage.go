// Package storage implements the physical substrate: stored multiset
// relations with hash indexes and page-I/O accounting that follows the
// cost conventions of the paper's Section 3.6 exactly:
//
//   - all indexes are hash indexes with no overflow pages;
//   - tuples are not clustered, so every tuple touched by an indexed read
//     costs one relation-page read;
//   - an indexed lookup costs one index-page read plus one relation-page
//     read per tuple returned;
//   - applying a batch of updates costs one index-page read per index
//     (plus one index-page write when the indexed columns change), one
//     relation-page read per modified or deleted tuple, and one
//     relation-page write per modified or inserted tuple;
//   - nothing is memory-resident unless a relation is explicitly marked
//     Resident, in which case touching it is free (used for ablations).
//
// The engine is in-memory — only the accounting is "paged" — which keeps
// experiments deterministic and laptop-scale while reporting the same
// quantity the paper does: page I/Os.
//
// Physical layout: rows live in a flat entries slice (first-insertion
// order, which fixes scan order) addressed by open-addressed
// bytemap.Map tables probed directly on value.KeyEncoder byte slices —
// both the row directory and every hash-index bucket directory — so the
// hot apply/lookup path materializes no string keys and performs no
// per-operation heap allocation. Stored tuples are cloned out of
// whatever buffer the caller handed in (mutation batches may be built
// in per-window arenas), so relation state never aliases caller memory;
// the copies live in a per-relation paged slab (tupleSlab), so the
// resident set is a few slab blocks per relation rather than one
// GC-tracked object per tuple.
package storage

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/bytemap"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/value"
)

// Registry mirrors of the I/O charges, by kind. They are incremented in
// exactly the places an IOCounter is charged — same Resident and buffer
// gating — so their accounting is charge-identical to the paper's,
// aggregated process-wide across stores.
var (
	obsIndexReads  = obs.C("storage.io.index_reads")
	obsIndexWrites = obs.C("storage.io.index_writes")
	obsPageReads   = obs.C("storage.io.page_reads")
	obsPageWrites  = obs.C("storage.io.page_writes")
)

// Open-index probe accounting, published as window deltas at the end of
// each ApplyBatch (per-probe atomics would put the metric on the hot
// path it is meant to observe).
var (
	obsProbeSteps = obs.C("storage.openindex.probes")
	obsProbeOps   = obs.C("storage.openindex.probe_ops")
	obsProbeMax   = obs.G("storage.openindex.max_probe")
)

// Tuple-slab accounting: allocation and release are separate monotonic
// counters (retained = allocated − released), so the exposition stays
// counter-shaped while compaction swaps still show up.
var (
	obsSlabBlockAllocs = obs.C("storage.slab.blocks_allocated")
	obsSlabBlockFrees  = obs.C("storage.slab.blocks_released")
	obsSlabBytesAlloc  = obs.C("storage.slab.bytes_allocated")
	obsSlabBytesFreed  = obs.C("storage.slab.bytes_released")
	obsSlabSlotReuse   = obs.C("storage.slab.slots_recycled")
)

// IOCounter accumulates page I/O charges.
//
// Concurrency contract: all mutation goes through atomic operations
// (the charge paths, AddCounter and Reset), so a counter may be read
// with Snapshot/Total at any time — including by the metrics endpoint —
// without synchronizing with chargers. Plain field access and
// whole-struct copies are only safe on counters no other goroutine is
// touching (private per-worker counters, or any counter between
// operations in single-threaded code, which is what the tests do).
type IOCounter struct {
	IndexReads  int64
	IndexWrites int64
	PageReads   int64
	PageWrites  int64
}

// Total returns the total number of page I/Os.
func (c *IOCounter) Total() int64 {
	s := c.Snapshot()
	return s.IndexReads + s.IndexWrites + s.PageReads + s.PageWrites
}

// Snapshot returns an atomically read copy of the counter, safe against
// concurrent charging.
func (c *IOCounter) Snapshot() IOCounter {
	return IOCounter{
		IndexReads:  atomic.LoadInt64(&c.IndexReads),
		IndexWrites: atomic.LoadInt64(&c.IndexWrites),
		PageReads:   atomic.LoadInt64(&c.PageReads),
		PageWrites:  atomic.LoadInt64(&c.PageWrites),
	}
}

// AddCounter atomically folds o's charges into c. The batched
// maintenance pipeline uses it to merge per-worker counters back into
// the store's shared counter while readers may be watching.
func (c *IOCounter) AddCounter(o IOCounter) {
	atomic.AddInt64(&c.IndexReads, o.IndexReads)
	atomic.AddInt64(&c.IndexWrites, o.IndexWrites)
	atomic.AddInt64(&c.PageReads, o.PageReads)
	atomic.AddInt64(&c.PageWrites, o.PageWrites)
}

// Reset zeroes the counter.
func (c *IOCounter) Reset() {
	atomic.StoreInt64(&c.IndexReads, 0)
	atomic.StoreInt64(&c.IndexWrites, 0)
	atomic.StoreInt64(&c.PageReads, 0)
	atomic.StoreInt64(&c.PageWrites, 0)
}

// Sub returns the difference c - o (I/Os charged since snapshot o).
func (c IOCounter) Sub(o IOCounter) IOCounter {
	return IOCounter{
		IndexReads:  c.IndexReads - o.IndexReads,
		IndexWrites: c.IndexWrites - o.IndexWrites,
		PageReads:   c.PageReads - o.PageReads,
		PageWrites:  c.PageWrites - o.PageWrites,
	}
}

// String renders the counter compactly.
func (c IOCounter) String() string {
	return fmt.Sprintf("total=%d (idxR=%d idxW=%d pageR=%d pageW=%d)",
		c.Total(), c.IndexReads, c.IndexWrites, c.PageReads, c.PageWrites)
}

// Row is a stored tuple with its bag multiplicity.
type Row struct {
	Tuple value.Tuple
	Count int64
}

// entry is one stored tuple. Entries are appended to a flat slice in
// first-insertion order and never removed (a fully deleted tuple keeps
// its slot at count zero so a reinsert reuses its original scan
// position); kref locates the tuple's canonical key bytes inside the
// row directory's arena.
type entry struct {
	tuple value.Tuple
	count int64
	kref  bytemap.Ref
	// freedSeq is the batch fence at which the entry last died (count
	// reached zero). A free-list record whose seq doesn't match is stale
	// — the entry was revived and re-freed since, and only the record
	// from the latest death may harvest the slot (see allocTuple).
	freedSeq uint64
	// indexed marks the entry as present in every hash-index bucket it
	// belongs to. Index removal is lazy: a fully deleted tuple keeps its
	// bucket positions (readers skip count-zero entries), so hot-bucket
	// deletes cost nothing and a revived tuple is not re-appended.
	// Compaction prunes dead entries from buckets wholesale.
	indexed bool
}

// tupleSlab bump-allocates the Value arrays backing stored tuples out
// of paged blocks, so a relation's resident set is a few hundred slab
// blocks instead of one GC-tracked object per tuple. The slab is
// grow-only between sweeps: blocks are appended as tuples arrive and
// individual tuples are never freed — a fully deleted tuple's storage
// is reclaimed when the lazy-deletion sweep (maybeCompact) or Restore
// copies the live tuples into the relation's spare slab and swaps the
// two (see Relation.slab/spare). Swapping instead of reallocating is
// what keeps steady-state compaction allocation-free, at the cost of
// holding roughly twice the live tuple bytes — the paper's
// space-for-time trade applied to the allocator itself.
type tupleSlab struct {
	blocks [][]value.Value
	bi     int // current block index
	off    int // next free slot in blocks[bi]
}

const slabBlockVals = 4096 // Values per slab block

// alloc reserves an n-Value slot in the slab without initializing it
// (the slot may hold stale Values from a retired generation; callers
// either copy over it or hand it out as dead free-slot storage that is
// overwritten on harvest). Oversize tuples get a dedicated block.
func (s *tupleSlab) alloc(n int) value.Tuple {
	for {
		if s.bi < len(s.blocks) {
			blk := s.blocks[s.bi]
			if s.off+n <= len(blk) {
				dst := blk[s.off : s.off+n : s.off+n]
				s.off += n
				return value.Tuple(dst)
			}
			s.bi++
			s.off = 0
			continue
		}
		size := slabBlockVals
		if n > size {
			size = n
		}
		s.blocks = append(s.blocks, make([]value.Value, size))
		obsSlabBlockAllocs.Inc()
		obsSlabBytesAlloc.Add(int64(size) * int64(value.Size))
	}
}

// clone copies t into the slab and returns the stable copy.
func (s *tupleSlab) clone(t value.Tuple) value.Tuple {
	if len(t) == 0 {
		return value.Tuple{}
	}
	dst := s.alloc(len(t))
	copy(dst, t)
	return dst
}

// rewind resets the bump cursor so existing blocks are refilled from
// the start. Only safe when every tuple previously served from the
// slab is dead (the compaction swap's contract).
func (s *tupleSlab) rewind() {
	s.bi, s.off = 0, 0
}

// release drops every block to the collector (Restore). Rows already
// handed out keep the old blocks alive for as long as they are
// referenced.
func (s *tupleSlab) release() {
	var vals int64
	for _, blk := range s.blocks {
		vals += int64(len(blk))
	}
	obsSlabBlockFrees.Add(int64(len(s.blocks)))
	obsSlabBytesFreed.Add(vals * int64(value.Size))
	s.blocks = nil
	s.bi, s.off = 0, 0
}

type hashIndex struct {
	def    catalog.IndexDef
	colPos []int
	// buckets maps projected-key bytes to a bucket id; lists[id] holds
	// the entry ids in the bucket, in insertion order (Lookup output
	// order depends on it). Lists may contain dead entry ids (lazy index
	// deletion); readers skip entries with count zero. nlists counts the
	// live bucket ids — lists beyond it are spare capacity kept across
	// compactions.
	buckets bytemap.Map[int32]
	lists   [][]int32
	nlists  int
	// enc/enc2 are reused projected-key scratch encoders; two because a
	// modify needs the old and new bucket keys side by side.
	enc  value.KeyEncoder
	enc2 value.KeyEncoder
	// Per-batch first-touch bucket bookkeeping (ApplyBatch general
	// path), reset per call.
	touched bytemap.Map[bool]
	order   []bytemap.Ref
}

func (ix *hashIndex) keyOf(t value.Tuple) []byte {
	return ix.enc.ProjectedKey(t, ix.colPos)
}

func (ix *hashIndex) keyOf2(t value.Tuple) []byte {
	return ix.enc2.ProjectedKey(t, ix.colPos)
}

// lookupPlan caches the column resolution of a Lookup shape so repeated
// probes from compiled track plans allocate nothing.
type lookupPlan struct {
	cols   []string
	pos    []int // cols resolved against the schema
	ix     *hashIndex
	keyPos []int // positions in cols feeding the index columns
}

// Relation is a stored multiset relation with hash indexes.
type Relation struct {
	Def *catalog.TableDef
	// Resident marks the relation memory-resident: no I/O is charged for
	// touching it. Off by default, matching the paper's assumption.
	Resident bool

	entries []entry
	slab    tupleSlab // backing store for every entry's tuple
	// spare is the previous generation's slab, retained across the
	// compaction swap so the next compaction refills its blocks instead
	// of allocating. Its contents stay intact for one full compaction
	// cycle — at least a window — which is longer than any reader is
	// allowed to hold a row (rows die at the relation's next mutation).
	spare tupleSlab
	// freeSlots lists dead entries (by id, per tuple arity) whose slab
	// slot a later insert may harvest once slotGrace batch fences have
	// passed; see allocTuple. The stock survives compaction: kept
	// records are re-slotted into the fresh slab generation as donor
	// entries. batchSeq counts ApplyBatch fences on this relation and
	// dates each freed slot; freeStock counts outstanding records (one
	// per pushed, not-yet-popped slot) so maybeCompact can separate
	// recyclable dead entries from reclaimable ones.
	freeSlots map[int]*slotList
	batchSeq  uint64
	freeStock int
	rows      bytemap.Map[int32] // canonical tuple key bytes → entry id
	indexes   []*hashIndex
	io        *IOCounter
	store     *Store
	// liveTuples counts distinct live tuples so Card is O(1) and
	// cardinality statistics stay fresh between full refreshes.
	liveTuples int
	// statsStale is set by every change to the stored bag (loads, batch
	// applies, Restore) and cleared by RefreshStats, which is a no-op
	// while it is clear.
	statsStale bool

	// Reused key-encoding scratch for the apply path; encNew/encOld are
	// live simultaneously during a modify. encAux serves the read paths
	// (Lookup probes, GetCount).
	encNew value.KeyEncoder
	encOld value.KeyEncoder
	encAux value.KeyEncoder

	plans []lookupPlan

	// Probe stats already published to the obs registry (window-delta
	// bookkeeping for publishProbeStats).
	pubProbes uint64
	pubOps    uint64
}

// Store is a collection of named relations sharing one I/O counter and,
// optionally, an LRU page buffer (nil reproduces the paper's cold-cache
// assumption).
type Store struct {
	IO     *IOCounter
	Buffer *Buffer
	rels   map[string]*Relation

	// FreshAlloc (testing knob) disables slab-arena tuple storage and
	// slot recycling for every relation in the store: each stored tuple
	// is an individually heap-allocated Clone, the pre-recycling
	// behavior. The differential recycling suite runs identical streams
	// through a recycled and a fresh store and asserts byte-identical
	// results; nothing in production sets this.
	FreshAlloc bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{IO: &IOCounter{}, rels: map[string]*Relation{}}
}

// Create allocates an empty relation for def, building its declared
// indexes. It replaces any existing relation with the same name.
func (s *Store) Create(def *catalog.TableDef) (*Relation, error) {
	r := &Relation{
		Def:   def,
		io:    s.IO,
		store: s,
	}
	for _, ixd := range def.Indexes {
		pos := make([]int, len(ixd.Columns))
		for i, col := range ixd.Columns {
			j, err := def.Schema.Resolve(col)
			if err != nil {
				return nil, fmt.Errorf("storage: index %s: %w", ixd.Name, err)
			}
			pos[i] = j
		}
		r.indexes = append(r.indexes, &hashIndex{
			def:    ixd,
			colPos: pos,
		})
	}
	s.rels[def.Name] = r
	return r, nil
}

// Get returns the named relation.
func (s *Store) Get(name string) (*Relation, bool) {
	r, ok := s.rels[name]
	return r, ok
}

// MustGet returns the named relation, panicking if absent.
func (s *Store) MustGet(name string) *Relation {
	r, ok := s.rels[name]
	if !ok {
		panic(fmt.Sprintf("storage: unknown relation %q", name))
	}
	return r
}

// Drop removes a relation from the store.
func (s *Store) Drop(name string) { delete(s.rels, name) }

// Names returns the stored relation names, sorted.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Card returns the number of distinct tuples currently stored.
func (r *Relation) Card() int { return r.liveTuples }

// SetIOCounter redirects the relation's I/O charges to c; nil restores
// the store's shared counter. The batched maintenance pipeline gives
// each worker a private counter so that applying deltas to independent
// views in parallel needs no locks on the charging path. Callers must
// ensure no buffer is attached (buffered charging mutates shared LRU
// state) and that the relation is touched by one goroutine at a time.
func (r *Relation) SetIOCounter(c *IOCounter) {
	if c == nil {
		c = r.store.IO
	}
	r.io = c
}

// Page identities: every stored tuple is its own page and every hash
// bucket is its own index page (the unclustered model of §3.6).
//
// The charge helpers take raw tuple/bucket key bytes and materialize
// the page-ID string only when an LRU buffer is attached: the
// unbuffered path — the paper's cold-cache default and the maintenance
// hot path — charges with one atomic add and no allocation.
func (r *Relation) tuplePageID(tupleKey []byte) string {
	return "t:" + r.Def.Name + "/" + string(tupleKey)
}

func (r *Relation) indexPageID(indexName string, bucketKey []byte) string {
	return "i:" + r.Def.Name + "/" + indexName + "/" + string(bucketKey)
}

func (r *Relation) buffered() bool { return r.store != nil && r.store.Buffer != nil }

// chargeIndexRead charges one index-page read (unless resident or
// buffered).
func (r *Relation) chargeIndexRead(indexName string, bucketKey []byte) {
	if r.Resident {
		return
	}
	if r.buffered() && r.store.Buffer.read(r.indexPageID(indexName, bucketKey)) {
		return
	}
	atomic.AddInt64(&r.io.IndexReads, 1)
	obsIndexReads.Inc()
}

func (r *Relation) chargeIndexWrite(indexName string, bucketKey []byte) {
	if r.Resident {
		return
	}
	atomic.AddInt64(&r.io.IndexWrites, 1)
	obsIndexWrites.Inc()
	if r.buffered() {
		r.store.Buffer.write(r.indexPageID(indexName, bucketKey))
	}
}

func (r *Relation) chargePageRead(tupleKey []byte) {
	if r.Resident {
		return
	}
	if r.buffered() && r.store.Buffer.read(r.tuplePageID(tupleKey)) {
		return
	}
	atomic.AddInt64(&r.io.PageReads, 1)
	obsPageReads.Inc()
}

func (r *Relation) chargePageWrite(tupleKey []byte) {
	if r.Resident {
		return
	}
	atomic.AddInt64(&r.io.PageWrites, 1)
	obsPageWrites.Inc()
	if r.buffered() {
		r.store.Buffer.write(r.tuplePageID(tupleKey))
	}
}

func (r *Relation) dropPage(tupleKey []byte) {
	if r.buffered() {
		r.store.Buffer.drop(r.tuplePageID(tupleKey))
	}
}

// keyBytes returns the canonical key bytes of entry e (stable: they
// live in the row directory's append-only arena).
func (r *Relation) keyBytes(e *entry) []byte { return r.rows.KeyAt(e.kref) }

// Scan returns all rows in first-insertion order, charging one page read
// per tuple (unclustered storage).
func (r *Relation) Scan() []Row {
	out := make([]Row, 0, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		if e.count > 0 {
			out = append(out, Row{Tuple: e.tuple, Count: e.count})
			r.chargePageRead(r.keyBytes(e))
		}
	}
	return out
}

// ScanFree is Scan without I/O accounting; used for statistics refresh,
// snapshots and result assembly that the paper's cost model does not
// charge for.
func (r *Relation) ScanFree() []Row {
	out := make([]Row, 0, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		if e.count > 0 {
			out = append(out, Row{Tuple: e.tuple, Count: e.count})
		}
	}
	return out
}

// Iterate walks the live rows in first-insertion order without I/O
// accounting and without materializing a slice — the zero-copy read
// path for callers that consume rows in place. The yielded Tuple
// aliases relation storage: it is valid only until the next mutation
// (compaction may move it) and must be cloned to be retained. Iteration
// stops when yield returns false.
func (r *Relation) Iterate(yield func(Row) bool) {
	for i := range r.entries {
		e := &r.entries[i]
		if e.count > 0 && !yield(Row{Tuple: e.tuple, Count: e.count}) {
			return
		}
	}
}

func (r *Relation) findIndex(cols []string) *hashIndex {
	want := make([]string, len(cols))
	copy(want, cols)
	for i := range want {
		want[i] = bareName(want[i])
	}
	sort.Strings(want)
	for _, ix := range r.indexes {
		have := make([]string, len(ix.def.Columns))
		for i, c := range ix.def.Columns {
			have[i] = bareName(c)
		}
		sort.Strings(have)
		if eqStrings(have, want) {
			return ix
		}
	}
	return nil
}

func bareName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookupPlanFor resolves (and caches) the index choice and column
// positions for a Lookup column shape. Index definitions are fixed at
// Create, so cached plans never go stale; cols are copied into the
// cache entry so callers may reuse their slice.
func (r *Relation) lookupPlanFor(cols []string) *lookupPlan {
	for i := range r.plans {
		if eqStrings(r.plans[i].cols, cols) {
			return &r.plans[i]
		}
	}
	pl := lookupPlan{cols: append([]string(nil), cols...)}
	pl.pos = make([]int, len(cols))
	for i, c := range cols {
		pl.pos[i] = r.Def.Schema.MustResolve(c)
	}
	pl.ix, pl.keyPos = r.findUsableIndex(cols)
	r.plans = append(r.plans, pl)
	return &r.plans[len(r.plans)-1]
}

// Lookup probes a hash index with the given key values and returns
// matching rows, charging one index-page read plus one page read per
// tuple touched. An index is usable when its columns are a subset of
// cols: the probe uses the indexed part and the remaining equalities are
// checked on the fetched tuples (each touched tuple costs its page read
// whether or not it survives the residual filter, per the paper's
// unclustered-storage convention). Falls back to a full scan (charged)
// when no usable index exists.
func (r *Relation) Lookup(cols []string, key value.Tuple) []Row {
	return r.LookupAppend(cols, key, nil)
}

// LookupAppend is Lookup with a caller-recycled output buffer: matching
// rows are appended to dst and the extended slice returned. Probe-heavy
// paths (the maintenance window memo) pass one long-lived buffer per
// window instead of allocating a fresh slice per probe. The appended
// rows alias relation storage under the usual Scan contract — valid
// only until the relation's next mutation.
func (r *Relation) LookupAppend(cols []string, key value.Tuple, dst []Row) []Row {
	pl := r.lookupPlanFor(cols)
	if pl.ix == nil {
		return r.scanMatch(pl, key, dst)
	}
	ix := pl.ix
	bucket := r.encAux.ProjectedKey(key, pl.keyPos)
	r.chargeIndexRead(ix.def.Name, bucket)
	if bid, ok := ix.buckets.Get(bucket); ok {
		for _, eid := range ix.lists[bid] {
			e := &r.entries[eid]
			if e.count <= 0 {
				continue
			}
			r.chargePageRead(r.keyBytes(e))
			if tupleMatches(e.tuple, pl.pos, key) {
				dst = append(dst, Row{Tuple: e.tuple, Count: e.count})
			}
		}
	}
	return dst
}

// tupleMatches reports whether t projected to pos equals key — the
// allocation-free form of t.Project(pos).Equal(key).
func tupleMatches(t value.Tuple, pos []int, key value.Tuple) bool {
	if len(pos) != len(key) {
		return false
	}
	for i, j := range pos {
		if !value.Equal(t[j], key[i]) {
			return false
		}
	}
	return true
}

// findUsableIndex returns the largest index whose columns are a subset of
// cols (bare-name comparison), plus the positions in cols supplying each
// indexed column's probe value.
func (r *Relation) findUsableIndex(cols []string) (*hashIndex, []int) {
	bare := make([]string, len(cols))
	for i, c := range cols {
		bare[i] = bareName(c)
	}
	var best *hashIndex
	var bestPos []int
	for _, ix := range r.indexes {
		pos := make([]int, 0, len(ix.def.Columns))
		ok := true
		for _, ic := range ix.def.Columns {
			found := -1
			for j, b := range bare {
				if b == bareName(ic) {
					found = j
					break
				}
			}
			if found < 0 {
				ok = false
				break
			}
			pos = append(pos, found)
		}
		if ok && (best == nil || len(ix.def.Columns) > len(best.def.Columns)) {
			best = ix
			bestPos = pos
		}
	}
	return best, bestPos
}

// scanMatch scans the relation for tuples matching key on the plan's
// columns.
func (r *Relation) scanMatch(pl *lookupPlan, key value.Tuple, dst []Row) []Row {
	for i := range r.entries {
		e := &r.entries[i]
		if e.count <= 0 {
			continue
		}
		// A scan touches every live tuple's page.
		r.chargePageRead(r.keyBytes(e))
		if tupleMatches(e.tuple, pl.pos, key) {
			dst = append(dst, Row{Tuple: e.tuple, Count: e.count})
		}
	}
	return dst
}

// GetCount returns the stored multiplicity of a tuple without charging
// I/O (bookkeeping use only).
func (r *Relation) GetCount(t value.Tuple) int64 {
	if eid, ok := r.rows.Get(r.encAux.Key(t)); ok {
		return r.entries[eid].count
	}
	return 0
}

func (r *Relation) indexInsert(t value.Tuple, eid int32) {
	for _, ix := range r.indexes {
		bk := ix.keyOf(t)
		p, _, existed := ix.buckets.GetOrPut(bk, int32(ix.nlists))
		if !existed {
			if ix.nlists == len(ix.lists) {
				ix.lists = append(ix.lists, nil)
			} else {
				ix.lists[ix.nlists] = ix.lists[ix.nlists][:0]
			}
			ix.nlists++
		}
		ix.lists[*p] = append(ix.lists[*p], eid)
	}
}

// resetIndex empties an index's directory, keeping bucket-list capacity
// for the rebuild that follows (compaction, Restore).
func (ix *hashIndex) resetIndex() {
	ix.buckets.Reset()
	ix.nlists = 0
}

// insertRaw adds count copies of t with no I/O accounting.
func (r *Relation) insertRaw(t value.Tuple, count int64) {
	r.insertRawKeyed(t, r.encNew.Key(t), count)
}

// insertRawKeyed is insertRaw with the tuple's canonical key bytes
// already encoded — the batch apply path encodes each key once and
// threads it through charging, mutation and buffer bookkeeping. tk may
// alias a reused encoder buffer; the row directory copies it.
func (r *Relation) insertRawKeyed(t value.Tuple, tk []byte, count int64) {
	r.statsStale = true
	p, ref, existed := r.rows.GetOrPut(tk, int32(len(r.entries)))
	if existed {
		e := &r.entries[*p]
		if e.count == 0 {
			// Revival: with lazy index deletion the entry is usually
			// still sitting in its buckets. Its tuple slot may have been
			// harvested by an insert while it was dead — re-clone.
			if e.tuple == nil {
				e.tuple = r.allocTuple(t)
			}
			if !e.indexed {
				r.indexInsert(t, *p)
				e.indexed = true
			}
			r.liveTuples++
		}
		e.count += count
		return
	}
	eid := *p
	if value.EpochChecksEnabled() {
		value.CheckEpoch(t)
	}
	// Stored copy: stored state must not alias caller buffers (per-window
	// arenas, encoder scratch) that are reset between windows, and the
	// copy lands in the relation's paged slab — preferentially in a slot
	// harvested from a dead entry — rather than as its own GC-tracked
	// object.
	r.entries = append(r.entries, entry{tuple: r.allocTuple(t), count: count, kref: ref, indexed: true})
	r.indexInsert(t, eid)
	r.liveTuples++
}

// slotRec is one harvestable dead-entry slot: the entry id plus the
// relation batch fence at which it was freed. Records in a list are in
// nondecreasing seq order (freeSlot appends at the current fence).
type slotRec struct {
	eid int32
	seq uint64
}

// slotList is a FIFO of slot records per tuple arity; head avoids
// shifting on pop and the backing array is recycled once drained.
type slotList struct {
	recs []slotRec
	head int
}

// slotGrace is how many ApplyBatch fences a freed slot must age before
// an insert may harvest it. One fence covers every sanctioned holder of
// a dead tuple: deltas computed in a window's propagation are consumed
// by that window's applies and its window hook, all before the
// relation's next batch. A rejected window writes nothing, so no batch
// ever replays tuples an earlier one freed. Anything older is dead
// under the window ownership rule.
const slotGrace = 1

// allocTuple places t's stored copy, preferring a same-arity slab slot
// harvested from an aged dead entry over the bump allocator:
// rewrite-heavy streams (a modify deletes the old tuple and inserts
// the new one) recycle the space their own deletes freed instead of
// growing the slab until the next compaction. The donor entry's tuple
// is nilled; if that entry is later revived, insertRawKeyed re-clones
// fresh storage for it.
func (r *Relation) allocTuple(t value.Tuple) value.Tuple {
	if r.store != nil && r.store.FreshAlloc {
		return t.Clone()
	}
	if n := len(t); n > 0 && r.freeSlots != nil {
		if sl := r.freeSlots[n]; sl != nil {
			for sl.head < len(sl.recs) {
				rec := sl.recs[sl.head]
				if rec.seq+slotGrace > r.batchSeq {
					// Oldest record is still inside the grace window; so
					// is everything behind it.
					break
				}
				sl.head++
				r.freeStock--
				d := &r.entries[rec.eid]
				if d.count != 0 || d.tuple == nil || d.freedSeq != rec.seq {
					// Revived since it was freed, its slot was already
					// harvested by an earlier insert, or this record is
					// stale (the entry died again after a revival — the
					// re-death pushed a younger record, and only that one
					// may harvest the slot: this batch's own readers may
					// still alias the newer incarnation's bytes).
					continue
				}
				slot := d.tuple
				d.tuple = nil
				copy(slot, t)
				obsSlabSlotReuse.Inc()
				return slot
			}
			if sl.head == len(sl.recs) {
				sl.recs = sl.recs[:0]
				sl.head = 0
			}
		}
	}
	return r.slab.clone(t)
}

// freeSlot offers a freshly dead entry's tuple slot for reuse by an
// insert of the same arity at least slotGrace fences from now.
func (r *Relation) freeSlot(eid int32) {
	if r.store != nil && r.store.FreshAlloc {
		return
	}
	e := &r.entries[eid]
	n := len(e.tuple)
	if n == 0 {
		return
	}
	if r.freeSlots == nil {
		r.freeSlots = map[int]*slotList{}
	}
	sl := r.freeSlots[n]
	if sl == nil {
		sl = &slotList{}
		r.freeSlots[n] = sl
	}
	e.freedSeq = r.batchSeq
	if sl.head > len(sl.recs)/2 && sl.head >= 64 {
		// Slide the live tail to the front so the backing array is
		// recycled instead of growing by the popped prefix forever.
		sl.recs = sl.recs[:copy(sl.recs, sl.recs[sl.head:])]
		sl.head = 0
	}
	sl.recs = append(sl.recs, slotRec{eid: eid, seq: r.batchSeq})
	r.freeStock++
}

// clearFreeSlots empties every per-arity free list, keeping the slices
// for reuse. Called when the slab's blocks are released wholesale
// (Restore) — the recorded slots would otherwise point into freed
// storage. Compaction does NOT clear the lists; it carries them into
// the new generation (see maybeCompact).
func (r *Relation) clearFreeSlots() {
	for _, sl := range r.freeSlots {
		sl.recs = sl.recs[:0]
		sl.head = 0
	}
	r.freeStock = 0
}

// deleteRawKeyed removes count copies of t, whose key bytes are tk, with
// no I/O accounting. Counts floor at zero; a tuple whose count reaches
// zero leaves the indexes. It returns the tuple's remaining multiplicity
// (zero when absent or fully deleted).
func (r *Relation) deleteRawKeyed(t value.Tuple, tk []byte, count int64) int64 {
	p := r.rows.Ptr(tk)
	if p == nil {
		return 0
	}
	e := &r.entries[*p]
	if e.count == 0 {
		return 0
	}
	r.statsStale = true
	e.count -= count
	if e.count <= 0 {
		e.count = 0
		// Lazy index deletion: the entry stays in its buckets (readers
		// skip count-zero entries) until the next compaction. Its tuple
		// slot goes on the free list for a later same-arity insert.
		r.liveTuples--
		r.freeSlot(*p)
	}
	return e.count
}

// maybeCompact reclaims dead entries once the reclaimable ones — dead
// entries NOT serving as free-slot stock — outnumber live tuples: the
// entries slice, row directory and every index are rebuilt from the
// live rows (preserving first-insertion scan order), dropping dead
// bucket positions and dead directory keys. Amortized O(1) per delete —
// a compaction's O(live) rebuild is paid for by the >= live deletions
// that accumulated since the last one. No I/O is charged: compaction is
// physical reorganization below the page model, like Restore.
//
// The free-slot stock survives the sweep: clearing it would starve
// allocTuple for the slotGrace windows after every compaction and
// force the rewrite churn back onto the bump allocator exactly when it
// is heaviest. Each kept record is re-slotted as a bare donor entry —
// dead, unindexed, absent from the row directory — whose tuple is an
// uninitialized slot in the fresh generation (capacity is all a dead
// slot carries; the bytes are written on harvest). Stock beyond what
// one grace period can consume is dropped oldest-first.
func (r *Relation) maybeCompact() {
	reclaimable := len(r.entries) - r.liveTuples - r.freeStock
	if reclaimable < 1024 || reclaimable <= r.liveTuples {
		return
	}
	old := r.entries
	// Validate and trim the free lists against the outgoing entries
	// BEFORE the live copy reuses the entries array in place: only each
	// record's seq and arity survive; eids are reassigned below.
	stockCap := 2*r.liveTuples + 1024
	for _, sl := range r.freeSlots {
		w := 0
		for _, rec := range sl.recs[sl.head:] {
			d := &old[rec.eid]
			if d.count != 0 || d.tuple == nil || d.freedSeq != rec.seq {
				continue // revived, harvested, or stale — not stock
			}
			sl.recs[w] = slotRec{eid: -1, seq: rec.seq}
			w++
		}
		sl.recs = sl.recs[:w]
		sl.head = 0
		if w > stockCap {
			// Keep the newest records; slots older than the cap would
			// outlast any plausible demand before the next sweep.
			sl.recs = sl.recs[:copy(sl.recs, sl.recs[w-stockCap:])]
		}
	}
	r.entries = old[:0]
	r.rows.Reset()
	for _, ix := range r.indexes {
		ix.resetIndex()
	}
	// Live tuples move into the spare slab, whose blocks were retired a
	// full compaction cycle ago: every row served from them is dead by
	// contract, so the blocks are refilled in place instead of
	// reallocated. The outgoing slab becomes the next spare.
	fresh := r.spare
	fresh.rewind()
	for i := range old {
		e := old[i]
		if e.count <= 0 {
			continue
		}
		if r.store == nil || !r.store.FreshAlloc {
			e.tuple = fresh.clone(e.tuple)
		}
		eid := int32(len(r.entries))
		_, ref, _ := r.rows.GetOrPut(r.encNew.Key(e.tuple), eid)
		e.kref = ref
		e.indexed = true
		r.entries = append(r.entries, e)
		r.indexInsert(e.tuple, eid)
	}
	// Re-slot the surviving stock as donor entries in the fresh
	// generation. In steady state the slots come from retained blocks,
	// so carrying the stock allocates nothing.
	r.freeStock = 0
	for arity, sl := range r.freeSlots {
		for i := range sl.recs {
			eid := int32(len(r.entries))
			r.entries = append(r.entries, entry{
				tuple:    fresh.alloc(arity),
				freedSeq: sl.recs[i].seq,
			})
			sl.recs[i].eid = eid
			r.freeStock++
		}
	}
	r.spare = r.slab
	r.slab = fresh
}

// publishProbeStats folds the open-index probe counters accumulated
// since the last publication into the obs registry: one pass over the
// relation's tables per ApplyBatch, nothing on the per-probe path.
func (r *Relation) publishProbeStats() {
	probes, ops, maxP := r.rows.ProbeStats()
	for _, ix := range r.indexes {
		p, o, m := ix.buckets.ProbeStats()
		probes += p
		ops += o
		if m > maxP {
			maxP = m
		}
	}
	if d := probes - r.pubProbes; d > 0 {
		obsProbeSteps.Add(int64(d))
		r.pubProbes = probes
	}
	if d := ops - r.pubOps; d > 0 {
		obsProbeOps.Add(int64(d))
		r.pubOps = ops
	}
	if float64(maxP) > obsProbeMax.Value() {
		obsProbeMax.Set(float64(maxP))
	}
}

// Load bulk-inserts rows without I/O accounting (initial population; the
// paper's costs never include initial materialization I/O).
func (r *Relation) Load(rows []Row) {
	for _, row := range rows {
		if row.Count == 0 {
			row.Count = 1
		}
		r.insertRaw(row.Tuple, row.Count)
	}
}

// LoadTuples bulk-inserts tuples with count 1, without I/O accounting.
func (r *Relation) LoadTuples(tuples []value.Tuple) {
	for _, t := range tuples {
		r.insertRaw(t, 1)
	}
}

// RefreshStats recomputes Card and, per column, the distinct count and
// the size-biased fan-out (catalog.Stats.Fanout) into the relation's
// table definition. A relation that has not changed since its statistics
// were taken returns at once, so callers about to cost a view set
// (Build, Reoptimize, Recover) refresh every relation and pay only for
// the ones that moved.
//
// Counts are in stored entries — what a Lookup reads and is charged for —
// so a tuple of multiplicity > 1 counts once, consistent with Card, and
// dead entries awaiting compaction count for nothing.
func (r *Relation) RefreshStats() {
	if !r.statsStale {
		return
	}
	r.statsStale = false
	cols := r.Def.Schema.Cols
	st := catalog.Stats{
		Card:     float64(r.liveTuples),
		Distinct: make(map[string]float64, len(cols)),
		Fanout:   make(map[string]float64, len(cols)),
	}
	// One reused encoder, single-value tuple and byte-keyed count table
	// across columns, walking the zero-copy iterator: the only per-row
	// cost is an encode into the scratch buffer and one table probe.
	var enc value.KeyEncoder
	one := make(value.Tuple, 1)
	var counts bytemap.Map[int64]
	for ci, col := range cols {
		counts.Reset()
		r.Iterate(func(row Row) bool {
			one[0] = row.Tuple[ci]
			n, _, _ := counts.GetOrPut(enc.Key(one), 0)
			*n++
			return true
		})
		// Σ n_k² / Σ n_k in integers, divided once: on a column whose
		// values all occur n times this is exactly n, bit-equal to
		// Card/Distinct.
		var sum, sumSq int64
		counts.Range(func(_ []byte, n *int64) bool {
			sum += *n
			sumSq += *n * *n
			return true
		})
		st.Distinct[col.Name] = float64(counts.Len())
		if sum > 0 {
			st.Fanout[col.Name] = float64(sumSq) / float64(sum)
		}
	}
	r.Def.Stats = st
}

// Version returns the relation's batch-fence counter: it advances on
// every non-empty ApplyBatch, so a caller that reads it before and
// after a Snapshot can detect whether a maintenance window landed in
// between (a torn seed) and retry. It is not synchronized — read it
// only from the maintenance goroutine or while the writer is quiescent.
func (r *Relation) Version() uint64 { return r.batchSeq }

// Snapshot captures the current contents for later restore: owning
// copies, independent of the relation's slab.
func (r *Relation) Snapshot() []Row {
	return r.SnapshotAppend(make([]Row, 0, r.liveTuples))
}

// SnapshotAppend appends owning copies of the live rows to dst — the
// reusable-buffer form of Snapshot for callers (checkpoints, periodic
// savepoints) that take snapshots repeatedly and want to amortize the
// slice. Tuples are still cloned: a snapshot must survive arbitrary
// later mutation and compaction of the relation.
func (r *Relation) SnapshotAppend(dst []Row) []Row {
	for i := range r.entries {
		e := &r.entries[i]
		if e.count > 0 {
			dst = append(dst, Row{Tuple: e.tuple.Clone(), Count: e.count})
		}
	}
	return dst
}

// RetainWhere keeps only the rows keep accepts and rebuilds the
// indexes, without I/O accounting — the partition primitive that
// restricts a freshly built relation to one shard's segment.
func (r *Relation) RetainWhere(keep func(t value.Tuple, count int64) bool) {
	var kept []Row
	for _, row := range r.ScanFree() {
		if keep(row.Tuple, row.Count) {
			kept = append(kept, row)
		}
	}
	r.Restore(kept)
}

// Restore replaces the contents with a snapshot, without I/O accounting.
// The snapshot may alias the relation's own slab (RetainWhere feeds
// ScanFree rows straight back), so the old slab is dropped — not reused
// — and Load clones each row into a fresh one.
func (r *Relation) Restore(rows []Row) {
	r.entries = r.entries[:0]
	r.rows.Reset()
	r.liveTuples = 0
	r.statsStale = true
	r.slab.release()
	r.spare.release()
	r.clearFreeSlots()
	for _, ix := range r.indexes {
		ix.resetIndex()
	}
	r.Load(rows)
}
