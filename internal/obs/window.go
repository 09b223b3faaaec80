package obs

import "sync/atomic"

// WindowTrace is the causal context of one maintenance window: a root
// span plus a process-unique window sequence number. It is allocated
// once per ApplyBatch window and threaded through every stage that does
// work on the window's behalf — coalesce, track propagation, view
// apply, per-shard apply and the cross-goroutine WAL commit — so spans
// finished on the committer's goroutine still link back to the window
// that caused them.
//
// The sequence number keys flight-recorder events (EvWindowOpen /
// EvWindowFence) so a binary dump can be correlated with the span ring
// without string names.
//
// All methods are safe on a nil *WindowTrace, and a WindowTrace whose
// tracer is disabled still carries a valid Seq so flight events keep
// flowing when spans are off.
type WindowTrace struct {
	root *Active
	seq  uint64
}

// windowSeq numbers windows across the whole process (sharded roots and
// shard-local sub-windows each take their own number).
var windowSeq atomic.Uint64

// StartWindow opens a window root span named name under parent (0 for a
// top-level window) and assigns the next window sequence number.
func StartWindow(name string, parent uint64) *WindowTrace {
	return &WindowTrace{
		root: Trace.Start(name, parent),
		seq:  windowSeq.Add(1),
	}
}

// RootID returns the root span's ID for parenting children (0 on nil or
// when tracing is disabled).
func (w *WindowTrace) RootID() uint64 {
	if w == nil {
		return 0
	}
	return w.root.ID()
}

// Seq returns the window's process-unique sequence number (0 on nil).
func (w *WindowTrace) Seq() uint64 {
	if w == nil {
		return 0
	}
	return w.seq
}

// Child starts a span parented to the window root. The caller finishes
// it; this is the one call every cross-goroutine stage uses.
func (w *WindowTrace) Child(name string) *Active {
	if w == nil {
		return Trace.Start(name, 0)
	}
	return Trace.Start(name, w.root.ID())
}

// Finish closes the root span. Cross-goroutine stages (the WAL
// committer) hold the root's ID, not the *Active, so finishing here
// never races them.
func (w *WindowTrace) Finish() {
	if w != nil {
		w.root.Finish()
	}
}
