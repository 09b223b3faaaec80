package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"
)

// sseKeepalive is the comment-ping interval that keeps idle streams
// from being reaped by intermediaries.
const sseKeepalive = 15 * time.Second

// handleFeed streams a view's changefeed as Server-Sent Events. The
// resume cursor comes from the Last-Event-ID header (standard EventSource
// reconnect) or an after= query parameter; events with feed sequence >
// cursor replay from the feed log before the live stream splices in.
// Without a feed log, a cursor the view has published past gets 410
// Gone (Hub.Subscribe's ErrResumeGap), never a silent gap.
// Event ids are feed sequence numbers, so a client detects its position
// solely from the protocol.
//
// Backpressure: each subscriber owns a bounded ring (HubConfig.
// SubscriberBuffer). A client that falls behind it is disconnected by
// the hub; on reconnect it replays the gap from the feed log. The
// stream ends with a "reset" comment in that case, so well-behaved
// clients reconnect immediately rather than waiting for TCP teardown.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub, err := s.hub.Subscribe(name, after)
	if errors.Is(err, ErrResumeGap) {
		httpErr(w, http.StatusGone, "%v", err)
		return
	}
	if err != nil {
		httpErr(w, http.StatusNotFound, "%v", err)
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	var last uint64
	write := func(ev Event) bool {
		if ev.Seq <= last && last != 0 {
			// Replay/live overlap: the event already went out.
			return true
		}
		if _, err := w.Write(sseFrame(ev)); err != nil {
			return false
		}
		last = ev.Seq
		return true
	}
	for _, ev := range sub.Replayed {
		if !write(ev) {
			return
		}
	}
	flusher.Flush()

	keep := time.NewTicker(sseKeepalive)
	defer keep.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-keep.C:
			if _, err := w.Write([]byte(": keepalive\n\n")); err != nil {
				return
			}
			flusher.Flush()
		case ev, open := <-sub.Events():
			if !open {
				// The hub cut us loose (overflow or shutdown): tell the
				// client to reconnect with its Last-Event-ID.
				w.Write([]byte(": reset\n\n"))
				flusher.Flush()
				return
			}
			if !write(ev) {
				return
			}
			// Drain whatever else is ready before flushing once.
			for {
				select {
				case ev, open := <-sub.Events():
					if !open {
						w.Write([]byte(": reset\n\n"))
						flusher.Flush()
						return
					}
					if !write(ev) {
						return
					}
					continue
				default:
				}
				break
			}
			flusher.Flush()
		}
	}
}

// sseFrame renders one event in SSE wire format:
//
//	id: <feed seq>
//	event: window
//	data: <json>
//	<blank>
//
// Data payloads are single-line JSON, so no data-splitting is needed.
func sseFrame(ev Event) []byte {
	b := make([]byte, 0, len(ev.Data)+48)
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, "\nevent: window\ndata: "...)
	b = append(b, ev.Data...)
	return append(b, "\n\n"...)
}
