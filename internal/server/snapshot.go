// Package server is the network surface of the maintenance engine: an
// HTTP/JSON server (stdlib only) that serves point and scan queries
// against epoch-pinned MVCC view snapshots, accepts transaction batches,
// and streams per-view changefeeds over SSE with resume-from-sequence
// backed by the changefeed log (wal.FeedLog).
//
// The design premise is that the maintainer's storage has NO read locks:
// slab recycling (DESIGN.md §14) frees readers were never promised.
// Readers therefore never touch maintainer storage. Instead the window
// hook (maintain.SetWindowHook) hands every applied window's per-view
// deltas to a Hub, which deep-clones them synchronously — inside the
// hook, before the next window's arena reset — and folds them, on its
// own goroutine, into per-view immutable Epochs published through an
// atomic pointer. A reader pins an Epoch with one atomic load and owns
// it forever; the writer never blocks on readers and readers never block
// on the writer.
package server

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/value"
)

// Row is one view row inside an Epoch: an owning tuple copy and its bag
// multiplicity.
type Row struct {
	Tuple value.Tuple
	Count int64
}

// chunkRows is the row count an epoch chunk is cut to. A chunk that
// reaches 2·chunkRows rows splits in half; one that falls below
// chunkRows/4 merges into a neighbour, so a view of n rows spans
// O(n/chunkRows) chunks however it grew or shrank.
const chunkRows = 64

// Epoch is an immutable snapshot of one view as of a feed sequence
// number. Published epochs are never mutated: handlers serve from them
// without synchronization, and a client that pins Seq re-reads
// byte-identical contents for as long as the epoch is retained.
//
// The rows live in sorted chunks that consecutive epochs share: a
// window copies only the chunks it touches plus the chunk list, so an
// epoch costs its window, not its view.
type Epoch struct {
	// Seq is the feed sequence number whose application produced this
	// epoch (0 for the seed snapshot taken before any window).
	Seq uint64
	// LSN is the WAL durability point covering the epoch (0 in-memory).
	LSN uint64

	chunks []chunk
}

// chunk is one run of an epoch's rows in compareRows order. Its rows are
// never written once an epoch holding it is published.
type chunk struct {
	rows []Row // non-empty
	end  int   // rows in this chunk and every chunk before it
	// last is the chunk's last tuple, and lead its first column, so
	// that Lookup's search over the chunk list reads the list alone
	// until a chunk's lead ties with the tuple sought.
	last value.Tuple
	lead value.Value
}

// after reports whether c's last row sorts at or after t.
func (c *chunk) after(t value.Tuple) bool {
	if len(t) > 0 {
		if d := compareValues(c.lead, t[0]); d != 0 {
			return d > 0
		}
	}
	return compareRows(c.last, t) >= 0
}

// Len is the number of rows in the epoch.
func (e *Epoch) Len() int {
	if len(e.chunks) == 0 {
		return 0
	}
	return e.chunks[len(e.chunks)-1].end
}

// Page returns up to limit rows starting at row offset, in scan order;
// a negative limit reads to the end. offset is clamped to [0, Len].
func (e *Epoch) Page(offset, limit int) []Row {
	n := e.Len()
	offset = min(max(offset, 0), n)
	if limit < 0 || limit > n-offset {
		limit = n - offset
	}
	out := make([]Row, 0, limit)
	ci := sort.Search(len(e.chunks), func(i int) bool { return e.chunks[i].end > offset })
	for ; len(out) < limit; ci++ {
		c := e.chunks[ci]
		from := offset + len(out) - (c.end - len(c.rows))
		out = append(out, c.rows[from:min(len(c.rows), from+limit-len(out))]...)
	}
	return out
}

// Lookup returns the row whose tuple has t's key encoding, if any: ±0.0
// and an Int and a Float of one number are different rows.
func (e *Epoch) Lookup(t value.Tuple) (Row, bool) {
	ci := sort.Search(len(e.chunks), func(i int) bool { return e.chunks[i].after(t) })
	if ci == len(e.chunks) {
		return Row{}, false
	}
	rows := e.chunks[ci].rows
	i, ok := slices.BinarySearchFunc(rows, t, compareRow)
	if !ok {
		return Row{}, false
	}
	return rows[i], true
}

func lastRow(rows []Row) value.Tuple { return rows[len(rows)-1].Tuple }

func compareRow(r Row, t value.Tuple) int { return compareRows(r.Tuple, t) }

// compareRows is the total order of an epoch's rows: value.Compare
// column by column, except that NaN sorts before every other number
// (cmp.Compare's rule; value.Compare calls NaN equal to all of them),
// with ties broken by the rows' key encodings (value.AppendKey).
// value.Compare alone ties ±0.0, and an Int with its Float twin, which
// are different rows.
func compareRows(a, b value.Tuple) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i := 0; i < n; i++ {
		if c := compareKeys(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func compareValues(a, b value.Value) int {
	if isNumber(a) && isNumber(b) {
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	return value.Compare(a, b)
}

func isNumber(v value.Value) bool { return v.Kind == value.Int || v.Kind == value.Float }

// compareKeys orders two values as bytes.Compare orders their key
// encodings, without encoding them: the kind byte first, then Int and
// Float bits big-endian, a String's length before its bytes.
func compareKeys(a, b value.Value) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	switch a.Kind {
	case value.Int, value.Float: // a Float's I is its bits
		return cmp.Compare(uint64(a.I), uint64(b.I))
	case value.String:
		if c := cmp.Compare(len(a.S), len(b.S)); c != 0 {
			return c
		}
		return strings.Compare(a.S, b.S)
	case value.Bool:
		if a.B == b.B {
			return 0
		}
		if b.B {
			return -1
		}
		return 1
	}
	return 0
}

// viewState is one served view. The builder and ring are owned by the
// hub goroutine; cur is the lock-free read path.
type viewState struct {
	name   string
	schema *catalog.Schema
	eqID   int

	build epochBuilder // hub goroutine only
	cur   atomic.Pointer[Epoch]

	// ring retains recent epochs, oldest first, so a client can pin a
	// sequence number across several requests (hub goroutine appends
	// under the hub mutex; readers copy the slice header under it too).
	ring []*Epoch

	subs []*subscriber // guarded by the hub mutex
}

// epochBuilder folds windows into new epochs on the hub goroutine. Its
// chunk list starts each window as a copy of the newest epoch's; fresh
// marks the chunks copied (or made) during this window, the only ones
// it edits in place. Every other chunk is shared with published epochs.
type epochBuilder struct {
	chunks []buildChunk
}

type buildChunk struct {
	rows  []Row
	fresh bool
}

// next returns the epoch that folding changes into prev gives. Counts
// are >= 1 (the cloning path normalizes them, matching the wire codec);
// a row whose count falls to zero or below leaves the view, and
// removing a row the view does not hold changes nothing.
func (b *epochBuilder) next(prev *Epoch, changes []Change, seq, lsn uint64) *Epoch {
	for _, c := range prev.chunks {
		b.chunks = append(b.chunks, buildChunk{rows: c.rows})
	}
	for _, c := range changes {
		if c.Old != nil {
			b.remove(c.Old, c.Count)
		}
		if c.New != nil {
			b.insert(c.New, c.Count)
		}
	}
	return b.publish(seq, lsn)
}

// find returns the chunk t belongs in, len(b.chunks) when t sorts after
// every row, and t's position in that chunk.
func (b *epochBuilder) find(t value.Tuple) (ci, i int, found bool) {
	ci = sort.Search(len(b.chunks), func(i int) bool { return compareRows(lastRow(b.chunks[i].rows), t) >= 0 })
	if ci == len(b.chunks) {
		return ci, 0, false
	}
	i, found = slices.BinarySearchFunc(b.chunks[ci].rows, t, compareRow)
	return ci, i, found
}

// own makes chunk ci editable: a shared chunk is copied first.
func (b *epochBuilder) own(ci int) []Row {
	c := &b.chunks[ci]
	if !c.fresh {
		c.rows = append(make([]Row, 0, len(c.rows)+1), c.rows...)
		c.fresh = true
	}
	return c.rows
}

func (b *epochBuilder) remove(t value.Tuple, n int64) {
	ci, i, found := b.find(t)
	if !found {
		return
	}
	rows := b.own(ci)
	if rows[i].Count > n {
		rows[i].Count -= n
		return
	}
	if len(rows) == 1 {
		b.chunks = slices.Delete(b.chunks, ci, ci+1)
		return
	}
	b.chunks[ci].rows = slices.Delete(rows, i, i+1)
}

func (b *epochBuilder) insert(t value.Tuple, n int64) {
	if len(b.chunks) == 0 {
		b.chunks = append(b.chunks, buildChunk{rows: []Row{{Tuple: t, Count: n}}, fresh: true})
		return
	}
	ci, i, found := b.find(t)
	if ci == len(b.chunks) {
		ci, i = ci-1, len(b.chunks[ci-1].rows)
	}
	rows := b.own(ci)
	if found {
		rows[i].Count += n
		return
	}
	b.chunks[ci].rows = slices.Insert(rows, i, Row{Tuple: t, Count: n})
	b.split(ci)
}

// split halves chunk ci once it reaches 2·chunkRows rows.
func (b *epochBuilder) split(ci int) {
	rows := b.chunks[ci].rows
	if len(rows) < 2*chunkRows {
		return
	}
	h := len(rows) / 2
	b.chunks[ci] = buildChunk{rows: slices.Clone(rows[:h]), fresh: true}
	b.chunks = slices.Insert(b.chunks, ci+1, buildChunk{rows: slices.Clone(rows[h:]), fresh: true})
}

// publish merges every chunk under chunkRows/4 rows into a neighbour,
// then freezes the chunk list into an epoch and empties the builder.
func (b *epochBuilder) publish(seq, lsn uint64) *Epoch {
	for i := 0; i < len(b.chunks) && len(b.chunks) > 1; i++ {
		if len(b.chunks[i].rows) >= chunkRows/4 {
			continue
		}
		j := min(i, len(b.chunks)-2)
		lo, hi := b.chunks[j].rows, b.chunks[j+1].rows
		b.chunks[j] = buildChunk{rows: append(append(make([]Row, 0, len(lo)+len(hi)), lo...), hi...), fresh: true}
		b.chunks = slices.Delete(b.chunks, j+1, j+2)
		b.split(j)
		i = j - 1 // look at the merged chunk again
	}
	ep := &Epoch{Seq: seq, LSN: lsn, chunks: make([]chunk, len(b.chunks))}
	end := 0
	for i, c := range b.chunks {
		end += len(c.rows)
		last := lastRow(c.rows)
		ep.chunks[i] = chunk{rows: c.rows, end: end, last: last}
		if len(last) > 0 {
			ep.chunks[i].lead = last[0]
		}
	}
	clear(b.chunks)
	b.chunks = b.chunks[:0]
	return ep
}

// appendValueJSON renders one scalar as JSON. Int stays integral (no
// float round-trip), strings go through encoding/json for escaping, and
// non-finite floats degrade to null (JSON has no NaN/Inf).
func appendValueJSON(dst []byte, v value.Value) []byte {
	switch v.Kind {
	case value.Int:
		return strconv.AppendInt(dst, v.I, 10)
	case value.Float:
		f := v.F()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(dst, "null"...)
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case value.String:
		b, _ := json.Marshal(v.S)
		return append(dst, b...)
	case value.Bool:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return append(dst, "null"...)
	}
}

// appendTupleJSON renders a tuple as a JSON array.
func appendTupleJSON(dst []byte, t value.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValueJSON(dst, v)
	}
	return append(dst, ']')
}

// tupleFromJSON decodes a JSON array into a tuple typed by the schema —
// the point-query key parser. JSON numbers land as Int or Float per the
// column kind, so clients can write [3] for an INT column.
func tupleFromJSON(data []byte, s *catalog.Schema) (value.Tuple, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, errf("key is not a JSON array: %v", err)
	}
	if len(raw) != s.Len() {
		return nil, errf("key has %d values, view has %d columns", len(raw), s.Len())
	}
	t := make(value.Tuple, len(raw))
	for i, r := range raw {
		col := s.Cols[i]
		if string(r) == "null" {
			t[i] = value.NewNull()
			continue
		}
		switch col.Type {
		case value.Int:
			var n int64
			if err := json.Unmarshal(r, &n); err != nil {
				return nil, errf("column %s wants INT: %v", col.Name, err)
			}
			t[i] = value.NewInt(n)
		case value.Float:
			var f float64
			if err := json.Unmarshal(r, &f); err != nil {
				return nil, errf("column %s wants FLOAT: %v", col.Name, err)
			}
			t[i] = value.NewFloat(f)
		case value.String:
			var str string
			if err := json.Unmarshal(r, &str); err != nil {
				return nil, errf("column %s wants VARCHAR: %v", col.Name, err)
			}
			t[i] = value.NewString(str)
		case value.Bool:
			var b bool
			if err := json.Unmarshal(r, &b); err != nil {
				return nil, errf("column %s wants BOOLEAN: %v", col.Name, err)
			}
			t[i] = value.NewBool(b)
		default:
			t[i] = value.NewNull()
		}
	}
	return t, nil
}
