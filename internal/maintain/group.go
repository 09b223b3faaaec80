package maintain

import (
	"errors"

	"repro/internal/delta"
	"repro/internal/value"
)

// errNestedGroup is Group's answer when a group is already open.
var errNestedGroup = errors.New("maintain: group opened inside an open group")

// ErrGroupOpen is Snapshot's answer inside an open group: the group's
// windows are applied but not logged yet, so a checkpoint taken then
// would hold state the log does not.
var ErrGroupOpen = errors.New("maintain: snapshot inside an open group")

// group is the state of one Group call: the accepted windows' base
// deltas and node deltas, cloned out of the window arena (which every
// ApplyBatch resets) into the group's own. Recycled across groups.
type group struct {
	arena value.Arena
	// windows holds each accepted window's coalesced base deltas, one
	// map per window, in order: the group's log window coalesces them.
	windows []map[string]*delta.Delta
	// txns counts the accepted windows' transactions: the hook fires at
	// the group's end iff there are any.
	txns int
	// seq is the last held window's sequence, for the flight recorder.
	seq uint64
	// nodes concatenates each node's changes over the accepted windows.
	nodes map[int]*delta.Delta

	coalescer delta.Coalescer
	nz        delta.Normalizer
}

// Group runs fn as one commit. Every ApplyBatch fn makes (through
// Apply, an ic.Checker or a System) is still propagated, checked
// against the Guards and applied one window at a time, exactly as
// outside a group, so every verdict and every page I/O is the same.
// What a group changes is what follows the windows: none of them is
// handed to the Committer or fires the window hook. When fn returns,
// the accepted windows' base deltas are coalesced into one log window
// — one record, one fsync — and the hook fires once, with each node's
// net change over the group. A group with no accepted window logs and
// publishes nothing.
//
// lsn is the durability point covering the group. fn's error does not
// undo the windows it accepted before failing: they are logged and
// published all the same, and Group returns fn's error with their lsn.
// A commit failure is returned in its place. Groups do not nest, and
// Snapshot refuses to run inside one.
func (m *Maintainer) Group(fn func() error) (lsn uint64, err error) {
	if m.grouping {
		return 0, errNestedGroup
	}
	g := &m.grp
	g.arena.Reset()
	g.windows = g.windows[:0]
	g.txns, g.seq = 0, 0
	for _, d := range g.nodes {
		d.Changes = d.Changes[:0]
	}
	m.grouping = true
	ferr := func() error {
		defer func() { m.grouping = false }()
		return fn()
	}()
	if lsn, err = m.commitGroup(); err != nil {
		return 0, err
	}
	return lsn, ferr
}

// holdWindow keeps an accepted window's base deltas for the group's
// log window: ApplyBatch calls it where it would otherwise have handed
// them to the Committer.
func (g *group) holdWindow(merged delta.Coalesced, seq uint64) {
	w := make(map[string]*delta.Delta, len(merged))
	for _, rd := range merged {
		w[rd.Rel] = g.clone(rd.Delta, delta.New(rd.Delta.Schema))
	}
	g.windows = append(g.windows, w)
	g.seq = seq
}

// holdDeltas counts an accepted window and folds its node deltas into
// the group's per-node concatenation: ApplyBatch calls it where it
// would otherwise have fired the window hook.
func (g *group) holdDeltas(deltas map[int]*delta.Delta, txns int) {
	g.txns += txns
	if g.nodes == nil {
		g.nodes = map[int]*delta.Delta{}
	}
	for id, d := range deltas {
		if d.Empty() {
			continue
		}
		acc, ok := g.nodes[id]
		if !ok {
			acc = delta.New(d.Schema)
			g.nodes[id] = acc
		}
		g.clone(d, acc)
	}
}

// clone appends d's changes to dst with their tuples copied into the
// group's arena, and returns dst.
func (g *group) clone(d, dst *delta.Delta) *delta.Delta {
	for _, c := range d.Changes {
		if c.Old != nil {
			c.Old = g.arena.CloneTuple(c.Old)
		}
		if c.New != nil {
			c.New = g.arena.CloneTuple(c.New)
		}
		dst.Changes = append(dst.Changes, c)
	}
	return dst
}

// commitGroup logs the group's held windows as one window and fires the
// hook once with each node's net change.
func (m *Maintainer) commitGroup() (uint64, error) {
	g := &m.grp
	var lsn uint64
	if m.Committer != nil {
		var l uint64
		var err error
		if w := g.coalescer.Coalesce(g.windows); len(w) > 0 {
			l, err = m.Committer.BeginWindow(w, g.txns)()
		} else {
			l, err = m.Committer.Commit(g.txns)
		}
		if err := fenced(&lsn, g.seq, l, err); err != nil {
			return 0, err
		}
	}
	if g.txns == 0 || m.onWindow == nil {
		return lsn, nil
	}
	net := make(map[int]*delta.Delta, len(g.nodes))
	for id, d := range g.nodes {
		if n := g.nz.NormalizePairedInto(d, delta.New(d.Schema)); !n.Empty() {
			net[id] = n
		}
	}
	m.fireWindowHook(lsn, g.txns, net)
	return lsn, nil
}
