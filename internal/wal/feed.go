package wal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/delta"
	"repro/internal/obs"
)

// FeedLog is the changefeed journal: an append-only record of every
// maintenance window that changed at least one materialized view, keyed
// by a contiguous feed sequence number. A reconnecting SSE subscriber
// replays the records after its Last-Event-ID from here, then splices
// onto the live fan-out — the log is the resume buffer the per-client
// rings are too small to be.
//
// The journal is a Log: same segments, CRC32C frames, contiguous
// sequence numbers (the records' LSNs) and torn-tail truncation on
// open. The frame's transaction-count slot carries txns+1: a record may
// cover zero transactions (journals written while rejected transactions
// were rolled back hold such compensation records, and stay readable),
// and the scanner treats a zero count as a torn record. The body is
// feed-specific:
//
//	body = uvarint windowSeq | uvarint walLSN | encoded window
//
// where the window's relation names are VIEW names resolved against the
// view schemas, not base relations.
//
// Unlike the WAL, the feed is written without fsync — it is derivable
// from the primary WAL, so a crash costs at worst a re-derivable suffix
// — and it supports concurrent readers while the writer appends:
// readers scan segment images and simply stop at the first incomplete
// frame, which the live fan-out covers.
type FeedLog struct {
	mu  sync.Mutex
	log *Log
}

var (
	feedBytes = obs.C("feed.bytes")
	feedRecs  = obs.C("feed.records")
)

// FeedRecord is one changefeed entry as read back from the log.
type FeedRecord struct {
	// Seq is the contiguous feed sequence number (the SSE event id).
	Seq uint64
	// WindowSeq is the maintainer's window sequence that produced the
	// entry; it can skip values the feed never saw (empty windows).
	WindowSeq uint64
	// LSN is the primary WAL durability point covering the window (0
	// for in-memory systems).
	LSN uint64
	// Txns is the window's transaction count.
	Txns int
	// Views holds the per-view net deltas, sorted by view name.
	Views delta.Coalesced
}

// OpenFeedLog opens (creating if needed) a changefeed directory with
// OpenLog.
func OpenFeedLog(fsys FS, dir string, opts Options) (*FeedLog, error) {
	l, err := OpenLog(fsys, dir, opts)
	if err != nil {
		return nil, err
	}
	return &FeedLog{log: l}, nil
}

// LastSeq returns the sequence number of the last appended record (0 if
// none).
func (f *FeedLog) LastSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.log.LastLSN()
}

// Append writes one changefeed record and returns its feed sequence
// number. views must be non-empty and sorted by view name; the caller
// (the server hub) owns serialization of appends, but Append is still
// mutex-guarded so readers can snapshot the segment list concurrently.
// No fsync: the feed trades a re-derivable crash suffix for not adding
// a second flush to every maintenance window.
func (f *FeedLog) Append(windowSeq, walLSN uint64, txns int, views delta.Coalesced) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.log
	body := binary.AppendUvarint(l.header(uint64(txns)+1), windowSeq)
	body = binary.AppendUvarint(body, walLSN)
	l.buf = delta.AppendWindow(body, views)
	if err := l.writeRecord(l.buf); err != nil {
		return 0, err
	}
	l.lastLSN++
	feedBytes.Add(int64(frameOverhead + len(l.buf)))
	feedRecs.Inc()
	return l.lastLSN, nil
}

// Replay streams every record with Seq > after to fn, in sequence
// order, resolving VIEW schemas through schemas. Safe to call while the
// writer appends: a reader that races an in-flight frame sees a shorter
// valid prefix (the CRC or length check fails) and stops there — the
// caller's live splice covers whatever the scan missed.
func (f *FeedLog) Replay(after uint64, schemas delta.SchemaSource, fn func(FeedRecord) error) error {
	f.mu.Lock()
	segs := append([]segInfo(nil), f.log.segs...)
	f.mu.Unlock()
	return f.log.replaySegments(segs, after, func(seq uint64, txns int, body []byte) error {
		windowSeq, sz := binary.Uvarint(body)
		if sz <= 0 {
			return fmt.Errorf("wal: feed record %d: bad window seq", seq)
		}
		body = body[sz:]
		walLSN, sz := binary.Uvarint(body)
		if sz <= 0 {
			return fmt.Errorf("wal: feed record %d: bad wal lsn", seq)
		}
		views, rest, err := delta.DecodeWindow(body[sz:], schemas)
		if err != nil {
			return fmt.Errorf("wal: feed record %d: %w", seq, err)
		}
		if len(rest) != 0 {
			return fmt.Errorf("wal: feed record %d: %d trailing bytes", seq, len(rest))
		}
		return fn(FeedRecord{Seq: seq, WindowSeq: windowSeq, LSN: walLSN, Txns: txns - 1, Views: views})
	})
}

// Close syncs the open segment, so restarts resume from a clean tail in
// the common case, and releases it. A failed sync is reported: the
// feed's tail may not be on disk.
func (f *FeedLog) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.log.cur != nil {
		if err = f.log.cur.Sync(); err != nil {
			err = fmt.Errorf("wal: feed sync: %w", err)
		}
	}
	if cerr := f.log.Close(); err == nil {
		err = cerr
	}
	return err
}
