package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

var (
	obsWindows     = obs.C("server.hub.windows")
	obsQueueDepth  = obs.G("server.hub.queue")
	obsSubscribers = obs.G("server.sse.subscribers")
	obsDropped     = obs.C("server.sse.dropped")
	obsEvents      = obs.C("server.sse.events")
	obsFeedErrs    = obs.C("server.feed.errors")
)

func errf(format string, args ...any) error { return fmt.Errorf("server: "+format, args...) }

// subCount backs the subscribers gauge (obs gauges are set-only).
var subCount atomic.Int64

func subGauge(d int64) { obsSubscribers.Set(float64(subCount.Add(d))) }

// Change is one cloned view change: tuples owned by the hub, count
// normalized to >= 1 exactly like the wire codec (delta.AppendChange),
// so live events and log-replayed events encode identically.
type Change struct {
	Old   value.Tuple
	New   value.Tuple
	Count int64
}

// ViewSource declares one view the hub serves: its public name, row
// schema, the equivalence-node ID its deltas arrive under, and the
// backing relation the seed snapshot is taken from.
type ViewSource struct {
	Name   string
	Schema *catalog.Schema
	EqID   int
	Rel    *storage.Relation
}

// HubConfig configures NewHub.
type HubConfig struct {
	Views []ViewSource
	// Feed, when set, journals every window for changefeed resume.
	// Without it, reconnecting subscribers can only join live.
	Feed *wal.FeedLog
	// Retain bounds the per-view epoch ring (default 64).
	Retain int
	// SubscriberBuffer is the per-subscriber ring capacity (default
	// 256). A subscriber that falls further behind is disconnected —
	// the resume path through the feed log is the real buffer.
	SubscriberBuffer int
}

// ownedWindow is one window after the hook's synchronous deep-clone:
// everything it references survives the maintainer's arena reset.
type ownedWindow struct {
	windowSeq uint64
	lsn       uint64
	txns      int
	views     []ownedViewDelta
}

type ownedViewDelta struct {
	state   *viewState
	changes []Change
}

// Hub receives applied windows from the maintainer's window hook,
// journals them to the feed log, folds them into per-view epochs and
// fans per-view events out to SSE subscribers. One hub goroutine does
// the folding/fan-out so the writer's hook only pays for the clone and
// an enqueue.
type Hub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []ownedWindow
	closed bool
	done   chan struct{}

	views map[string]*viewState // immutable after NewHub
	byEq  map[int]*viewState    // immutable after NewHub

	feed    *wal.FeedLog
	feedSeq uint64 // hub goroutine only (mirrors feed.LastSeq when set)

	retain int
	subCap int
}

// NewHub builds the hub, seeds every view's epoch 0 from its backing
// relation, and starts the fold/fan-out goroutine. Seeding must happen
// while the maintainer is quiescent (no window in flight) — NewHub
// verifies that by re-reading each relation's fence counter around the
// snapshot and retrying if a window landed in between.
func NewHub(cfg HubConfig) (*Hub, error) {
	h := &Hub{
		views:  map[string]*viewState{},
		byEq:   map[int]*viewState{},
		feed:   cfg.Feed,
		retain: cfg.Retain,
		subCap: cfg.SubscriberBuffer,
		done:   make(chan struct{}),
	}
	if h.retain <= 0 {
		h.retain = 64
	}
	if h.subCap <= 0 {
		h.subCap = 256
	}
	h.cond = sync.NewCond(&h.mu)
	if h.feed != nil {
		h.feedSeq = h.feed.LastSeq()
	}
	for _, src := range cfg.Views {
		if src.Name == "" || src.Schema == nil || src.Rel == nil {
			return nil, errf("view source %q incomplete", src.Name)
		}
		if _, dup := h.views[src.Name]; dup {
			return nil, errf("duplicate view %q", src.Name)
		}
		vs := &viewState{name: src.Name, schema: src.Schema, eqID: src.EqID}
		for retry := 0; ; retry++ {
			v0 := src.Rel.Version()
			rows := src.Rel.Snapshot()
			if src.Rel.Version() == v0 {
				for _, r := range rows {
					vs.build.insert(r.Tuple, r.Count)
				}
				break
			}
			if retry > 100 {
				return nil, errf("view %q: cannot seed a stable snapshot (writer active)", src.Name)
			}
		}
		ep := vs.build.publish(h.feedSeq, 0)
		vs.cur.Store(ep)
		vs.ring = append(vs.ring, ep)
		h.views[src.Name] = vs
		h.byEq[src.EqID] = vs
	}
	go h.run()
	return h, nil
}

// OnWindow is the maintain.WindowHook: it runs on the writer's window
// goroutine, so it does the minimum — deep-clone the served views'
// deltas (they die at the next arena reset) and enqueue. Windows that
// touch no served view produce no feed record and no epoch.
func (h *Hub) OnWindow(u maintain.WindowUpdate) {
	var vds []ownedViewDelta
	for eqID, vs := range h.byEq {
		d := u.Deltas[eqID]
		if d.Empty() {
			continue
		}
		changes := make([]Change, 0, len(d.Changes))
		for _, c := range d.Changes {
			oc := Change{Count: c.Count}
			if oc.Count <= 0 {
				oc.Count = 1
			}
			if c.Old != nil {
				oc.Old = c.Old.Clone()
			}
			if c.New != nil {
				oc.New = c.New.Clone()
			}
			changes = append(changes, oc)
		}
		vds = append(vds, ownedViewDelta{state: vs, changes: changes})
	}
	if len(vds) == 0 {
		return
	}
	sort.Slice(vds, func(i, j int) bool { return vds[i].state.name < vds[j].state.name })
	h.mu.Lock()
	if !h.closed {
		h.queue = append(h.queue, ownedWindow{
			windowSeq: u.Seq, lsn: u.LSN, txns: u.Txns, views: vds})
		obsQueueDepth.Set(float64(len(h.queue)))
		h.cond.Signal()
	}
	h.mu.Unlock()
}

// run is the hub goroutine: drain the queue, journal, fold, publish,
// fan out.
func (h *Hub) run() {
	defer close(h.done)
	for {
		h.mu.Lock()
		for len(h.queue) == 0 && !h.closed {
			h.cond.Wait()
		}
		if len(h.queue) == 0 && h.closed {
			h.mu.Unlock()
			return
		}
		w := h.queue[0]
		h.queue[0] = ownedWindow{}
		h.queue = h.queue[1:]
		if len(h.queue) == 0 {
			// Drop the drained backing array: a burst would otherwise
			// pin its high-water slice forever.
			h.queue = nil
		}
		obsQueueDepth.Set(float64(len(h.queue)))
		h.mu.Unlock()
		h.process(w)
	}
}

func (h *Hub) process(w ownedWindow) {
	obsWindows.Inc()
	// Journal first: the feed record must be on disk before any
	// subscriber can observe the event id, or a resume from that id
	// would miss it.
	if h.feed != nil {
		coalesced := make(delta.Coalesced, 0, len(w.views))
		for _, vd := range w.views {
			d := delta.New(vd.state.schema)
			for _, c := range vd.changes {
				d.Changes = append(d.Changes, delta.Change{Old: c.Old, New: c.New, Count: c.Count})
			}
			coalesced = append(coalesced, delta.RelDelta{Rel: vd.state.name, Delta: d})
		}
		seq, err := h.feed.Append(w.windowSeq, w.lsn, w.txns, coalesced)
		if err != nil {
			// A broken feed log stops resume, not serving: keep
			// assigning sequence numbers so snapshots and live
			// subscribers continue.
			obsFeedErrs.Inc()
			h.feedSeq++
		} else {
			h.feedSeq = seq
		}
	} else {
		h.feedSeq++
	}
	seq := h.feedSeq

	for _, vd := range w.views {
		vs := vd.state
		ep := vs.build.next(vs.cur.Load(), vd.changes, seq, w.lsn)
		ev := Event{
			View: vs.name,
			Seq:  seq,
			Data: buildEventJSON(vs.name, seq, w.windowSeq, w.lsn, w.txns, vd.changes),
		}
		h.mu.Lock()
		vs.cur.Store(ep)
		vs.ring = append(vs.ring, ep)
		if len(vs.ring) > h.retain {
			n := copy(vs.ring, vs.ring[len(vs.ring)-h.retain:])
			for i := n; i < len(vs.ring); i++ {
				vs.ring[i] = nil
			}
			vs.ring = vs.ring[:n]
		}
		for i := 0; i < len(vs.subs); {
			sub := vs.subs[i]
			select {
			case sub.ch <- ev:
				obsEvents.Inc()
				i++
			default:
				// Backpressure policy: a subscriber that cannot keep a
				// ring of subCap events is cut loose — it reconnects
				// with Last-Event-ID and replays from the feed log,
				// which is the buffer that actually scales.
				obsDropped.Inc()
				sub.closeLocked()
				vs.subs = removeSub(vs.subs, i)
			}
		}
		h.mu.Unlock()
	}
}

// Event is one fanned-out changefeed entry: the precomputed SSE data
// payload, shared (read-only) across every subscriber of the view.
type Event struct {
	View string
	Seq  uint64
	Data []byte
}

// buildEventJSON renders the deterministic event payload. Both the live
// path and feed-log replay call it with counts normalized >= 1, so a
// resumed stream is byte-identical to an uninterrupted one.
func buildEventJSON(view string, seq, windowSeq, lsn uint64, txns int, changes []Change) []byte {
	b := make([]byte, 0, 64+32*len(changes))
	b = append(b, `{"view":`...)
	b = appendValueJSON(b, value.NewString(view))
	b = append(b, `,"seq":`...)
	b = appendUint(b, seq)
	b = append(b, `,"window_seq":`...)
	b = appendUint(b, windowSeq)
	b = append(b, `,"lsn":`...)
	b = appendUint(b, lsn)
	b = append(b, `,"txns":`...)
	b = appendUint(b, uint64(txns))
	b = append(b, `,"changes":[`...)
	for i, c := range changes {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case c.Old == nil:
			b = append(b, `{"op":"insert","new":`...)
			b = appendTupleJSON(b, c.New)
		case c.New == nil:
			b = append(b, `{"op":"delete","old":`...)
			b = appendTupleJSON(b, c.Old)
		default:
			b = append(b, `{"op":"modify","old":`...)
			b = appendTupleJSON(b, c.Old)
			b = append(b, `,"new":`...)
			b = appendTupleJSON(b, c.New)
		}
		b = append(b, `,"count":`...)
		b = appendUint(b, uint64(c.Count))
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func appendUint(b []byte, n uint64) []byte {
	return strconv.AppendUint(b, n, 10)
}

func removeSub(subs []*subscriber, i int) []*subscriber {
	subs[i] = subs[len(subs)-1]
	subs[len(subs)-1] = nil
	return subs[:len(subs)-1]
}

// ViewNames returns the served view names, sorted.
func (h *Hub) ViewNames() []string {
	out := make([]string, 0, len(h.views))
	for n := range h.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Schema returns the schema of a served view.
func (h *Hub) Schema(view string) (*catalog.Schema, bool) {
	vs, ok := h.views[view]
	if !ok {
		return nil, false
	}
	return vs.schema, true
}

// Current returns the newest published epoch of a view.
func (h *Hub) Current(view string) (*Epoch, bool) {
	vs, ok := h.views[view]
	if !ok {
		return nil, false
	}
	return vs.cur.Load(), true
}

// EpochAt returns the epoch that was current as of feed sequence seq:
// the newest retained epoch with Seq <= seq. Pinning one seq across
// several views therefore yields a mutually consistent multi-view read.
// evicted reports that the epoch existed but has left the retention
// ring (the HTTP layer turns it into 410 Gone).
func (h *Hub) EpochAt(view string, seq uint64) (ep *Epoch, evicted, ok bool) {
	vs, found := h.views[view]
	if !found {
		return nil, false, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(vs.ring) - 1; i >= 0; i-- {
		if vs.ring[i].Seq <= seq {
			return vs.ring[i], false, true
		}
	}
	return nil, true, true
}

// subscriber is one SSE client's live ring.
type subscriber struct {
	view   string
	ch     chan Event
	closed bool // guarded by the hub mutex
}

func (s *subscriber) closeLocked() {
	if !s.closed {
		s.closed = true
		close(s.ch)
		subGauge(-1)
	}
}

// Subscription is a live changefeed attachment. Events delivers in feed
// order; a closed channel means the hub cut the subscriber loose (shut
// down, or it fell behind its ring) and the client should reconnect
// with its last seen sequence.
type Subscription struct {
	hub *Hub
	sub *subscriber
	// Replayed holds the events recovered from the feed log for a
	// resume request, in order, all with Seq > the requested cursor.
	// Live events may overlap its tail; consumers dedupe by Seq.
	Replayed []Event
}

// Events is the live channel.
func (s *Subscription) Events() <-chan Event { return s.sub.ch }

// Close detaches the subscription.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	vs := h.views[s.sub.view]
	for i, sub := range vs.subs {
		if sub == s.sub {
			vs.subs = removeSub(vs.subs, i)
			break
		}
	}
	s.sub.closeLocked()
}

// ErrResumeGap is Subscribe's answer to a resume cursor that a hub with
// no feed log cannot serve: the view has published past it, and nothing
// holds the events in between. The HTTP layer turns it into 410 Gone;
// the client re-reads the view and subscribes live.
var ErrResumeGap = errors.New("server: resume cursor behind the view, and no feed log holds the gap")

// Subscribe attaches a changefeed subscriber to a view. after is the
// resume cursor: 0 for "live from now", otherwise the last event id the
// client saw. The subscriber is registered BEFORE the feed log is read,
// so every event lands in the replay, the live ring, or both — never
// neither; the consumer drops live events with Seq <= the last replayed
// Seq. Without a feed log, a cursor the view's current epoch has passed
// gets ErrResumeGap: the check shares the registration's critical
// section with the epoch's publication, so it is exact.
func (h *Hub) Subscribe(view string, after uint64) (*Subscription, error) {
	vs, ok := h.views[view]
	if !ok {
		return nil, errf("unknown view %q", view)
	}
	sub := &subscriber{view: view, ch: make(chan Event, h.subCap)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errf("hub closed")
	}
	if h.feed == nil && after > 0 && vs.cur.Load().Seq > after {
		h.mu.Unlock()
		return nil, ErrResumeGap
	}
	vs.subs = append(vs.subs, sub)
	subGauge(1)
	cur := h.feed != nil && after > 0
	h.mu.Unlock()

	s := &Subscription{hub: h, sub: sub}
	if cur {
		err := h.feed.Replay(after, h.schemaSource(), func(rec wal.FeedRecord) error {
			for _, rd := range rec.Views {
				if rd.Rel != view {
					continue
				}
				changes := make([]Change, 0, len(rd.Delta.Changes))
				for _, c := range rd.Delta.Changes {
					changes = append(changes, Change{Old: c.Old, New: c.New, Count: c.Count})
				}
				s.Replayed = append(s.Replayed, Event{
					View: view,
					Seq:  rec.Seq,
					Data: buildEventJSON(view, rec.Seq, rec.WindowSeq, rec.LSN, rec.Txns, changes),
				})
			}
			return nil
		})
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// schemaSource resolves VIEW names for feed-log decoding.
func (h *Hub) schemaSource() delta.SchemaSource {
	return func(rel string) (*catalog.Schema, bool) {
		vs, ok := h.views[rel]
		if !ok {
			return nil, false
		}
		return vs.schema, true
	}
}

// Stats reports hub gauges for /status.
type Stats struct {
	Views       int    `json:"views"`
	FeedSeq     uint64 `json:"feed_seq"`
	Subscribers int    `json:"subscribers"`
	QueueDepth  int    `json:"queue_depth"`
}

// Stats snapshots the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := 0
	for _, vs := range h.views {
		subs += len(vs.subs)
	}
	return Stats{Views: len(h.views), FeedSeq: h.feedSeq,
		Subscribers: subs, QueueDepth: len(h.queue)}
}

// Close drains the queue, detaches every subscriber and stops the hub
// goroutine. The installed window hook becomes a no-op enqueue; callers
// should also remove it from the maintainer.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
	<-h.done
	h.mu.Lock()
	for _, vs := range h.views {
		for _, sub := range vs.subs {
			sub.closeLocked()
		}
		vs.subs = nil
	}
	h.mu.Unlock()
	if h.feed != nil {
		return h.feed.Close()
	}
	return nil
}
