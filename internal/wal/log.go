package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"time"

	"repro/internal/delta"
	"repro/internal/obs"
)

// Segment layout:
//
//	header  = magic "MVWALSG1" | u64 firstLSN (BigEndian)     (16 bytes)
//	record  = u32 len (LE) | u32 crc32c (LE) | payload
//	payload = uvarint LSN | uvarint txnCount | body
//
// The body is an encoded window in the WAL and a feed entry in FeedLog.
//
// LSNs are assigned per committed window (group commit: one record, one
// fsync per ApplyBatch window) and increase by exactly one from the
// segment's firstLSN, so the scanner can reject any record that is not
// the direct successor of the previous one. The committed prefix of the
// log is the longest run of records with valid frames, valid CRCs and
// contiguous LSNs; everything after the first violation is the torn
// tail of a crashed write and is truncated on open.
const (
	segMagic      = "MVWALSG1"
	segHeaderLen  = 16
	frameOverhead = 8
	// maxRecordLen bounds a frame's declared payload length so a corrupt
	// length field cannot drive a huge allocation.
	maxRecordLen = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	fsyncNs  = obs.H("wal.fsync.ns")
	walBytes = obs.C("wal.bytes")
	walRecs  = obs.C("wal.records")
)

// Options configures a log directory.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB). A record
	// larger than the threshold still gets a segment to itself.
	SegmentBytes int
	// Meta is opaque application metadata stored in every checkpoint
	// (the shell uses it to persist the DDL that rebuilds the catalog).
	Meta map[string]string
}

func (o Options) segBytes() int {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 4 << 20
}

// Record is one committed window as read back from the log.
type Record struct {
	LSN    uint64
	Txns   int
	Window delta.Coalesced
}

type segInfo struct {
	name     string
	firstLSN uint64
}

// Log is an open segmented record log: the WAL and the changefeed
// (FeedLog) are both one. Not safe for concurrent use; the Manager
// serializes commits behind the maintenance pipeline's window barrier,
// FeedLog behind its mutex.
type Log struct {
	fsys     FS
	dir      string
	segBytes int

	lastLSN uint64
	segs    []segInfo

	cur     File
	curName string
	curSize int
	buf     []byte // payload scratch (uvarint header + body)
	fbuf    []byte // frame scratch (length | crc | payload)

	// broken latches the first write error: a log that failed mid-frame
	// must not accept further commits, because the tail is now of
	// unknown shape.
	broken error
}

// OpenLog opens (creating if needed) a log directory, scans every
// segment, truncates the torn tail of a crashed write, and removes any
// segments after the first invalid point.
func OpenLog(fsys FS, dir string, opts Options) (*Log, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}
	l := &Log{fsys: fsys, dir: dir, segBytes: opts.segBytes()}
	var segNames []string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segNames = append(segNames, n)
		}
	}
	// Fixed-width hex names sort in LSN order.
	valid := true
	for i, name := range segNames {
		if !valid {
			if err := fsys.Remove(join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: remove %s: %w", name, err)
			}
			continue
		}
		data, err := fsys.ReadFile(join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: read %s: %w", name, err)
		}
		hdrLSN, recs, validLen, hdrOK := scanSegment(data)
		nameLSN, _ := parseSegName(name)
		if !hdrOK || hdrLSN != nameLSN || (i > 0 && hdrLSN != l.lastLSN+1) {
			// A segment whose header never became durable (or does not
			// follow its predecessor) is the wreckage of a crashed
			// rotation: drop it and everything after it.
			valid = false
			if err := fsys.Remove(join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: remove %s: %w", name, err)
			}
			continue
		}
		if i == 0 {
			l.lastLSN = hdrLSN - 1
		}
		if validLen < len(data) {
			if err := fsys.Truncate(join(dir, name), int64(validLen)); err != nil {
				return nil, fmt.Errorf("wal: truncate %s: %w", name, err)
			}
			// The torn record is gone; nothing after it can be valid.
			valid = false
		}
		l.segs = append(l.segs, segInfo{name: name, firstLSN: hdrLSN})
		l.lastLSN += uint64(len(recs))
		l.curName = name
		l.curSize = validLen
	}
	if len(l.segs) == 0 {
		// Fresh log: create and sync the first segment now, so the first
		// commit's fsync pays only for its record — not for the directory
		// entry, inode and initial extent allocation of a brand-new file.
		// A crash leaving a header-only segment is already a valid state
		// (OpenLog scans it to zero records and appends to it).
		if err := l.newSegment(l.lastLSN + 1); err != nil {
			return nil, err
		}
		if err := l.cur.Sync(); err != nil {
			return nil, fmt.Errorf("wal: sync new segment: %w", err)
		}
		// Leave the segment closed (curName marks it for the reopen path):
		// replay and recovery refuse a log with open writes.
		if err := l.cur.Close(); err != nil {
			return nil, fmt.Errorf("wal: close new segment: %w", err)
		}
		l.cur = nil
	}
	return l, nil
}

// LastLSN returns the LSN of the last committed window (0 if none).
func (l *Log) LastLSN() uint64 { return l.lastLSN }

// CommitWindow appends one coalesced window covering txns transactions
// and makes it durable with a single fsync. It returns the window's LSN.
func (l *Log) CommitWindow(w delta.Coalesced, txns int) (uint64, error) {
	l.buf = delta.AppendWindow(l.header(uint64(txns)), w)
	lsn, n := l.lastLSN+1, frameOverhead+len(l.buf)
	// Flight-recorder ordering contract: the start event lands BEFORE
	// the record's bytes reach the filesystem and the done event only
	// after fsync returns, so in any post-mortem image
	// max(done LSNs) <= recovered LSN <= max(start LSNs) — the black box
	// and the log can be cross-checked against each other.
	obs.Flight().Record(obs.EvFsyncStart, 0, lsn, uint64(n), 0)
	if err := l.writeRecord(l.buf); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := l.cur.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: fsync: %w", err)
		return 0, l.broken
	}
	fsyncNs.Observe(time.Since(start).Nanoseconds())
	obs.Flight().Record(obs.EvFsyncDone, 0, lsn, uint64(n), 0)
	walBytes.Add(int64(n))
	walRecs.Inc()
	l.lastLSN = lsn
	return lsn, nil
}

// header starts the next record's payload in the log's scratch buffer —
// uvarint LSN | uvarint txns — for the caller to append the body to.
func (l *Log) header(txns uint64) []byte {
	l.buf = binary.AppendUvarint(l.buf[:0], l.lastLSN+1)
	return binary.AppendUvarint(l.buf, txns)
}

// writeRecord frames one payload (uvarint LSN | uvarint txns | body,
// the LSN being lastLSN+1) with its length and CRC32C, rotates to a
// fresh segment when the current one is full, and writes the frame. It
// neither fsyncs nor advances lastLSN; the caller does both or, for the
// changefeed, only the latter.
func (l *Log) writeRecord(payload []byte) error {
	if l.broken != nil {
		return l.broken
	}
	if len(payload) > maxRecordLen {
		return fmt.Errorf("wal: record payload %d exceeds max record size", len(payload))
	}
	n := frameOverhead + len(payload)
	if cap(l.fbuf) < n {
		l.fbuf = make([]byte, n)
	}
	frame := l.fbuf[:n]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameOverhead:], payload)
	if err := l.ensureSegment(l.lastLSN+1, n); err != nil {
		l.broken = err
		return err
	}
	if _, err := l.cur.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: write: %w", err)
		return l.broken
	}
	l.curSize += n
	return nil
}

// ensureSegment makes l.cur an open segment with room for a frame of
// frameLen bytes, reopening the scanned tail segment after a restart or
// rotating to a fresh one on overflow. A frame larger than the rotation
// threshold still gets a segment to itself.
func (l *Log) ensureSegment(firstLSN uint64, frameLen int) error {
	full := func() bool {
		return l.curSize+frameLen > l.segBytes && l.curSize > segHeaderLen
	}
	if l.cur == nil && l.curName != "" && !full() {
		// Reopen the tail segment OpenLog scanned: append to it rather
		// than starting a fresh one, so a reboot loop does not leak a
		// segment per commit.
		f, err := l.fsys.OpenAppend(join(l.dir, l.curName))
		if err != nil {
			return fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.cur = f
		return nil
	}
	if l.cur != nil && !full() {
		return nil
	}
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.cur = nil
	}
	return l.newSegment(firstLSN)
}

// newSegment creates the segment whose first record will be firstLSN,
// writes its header, and makes it the current segment. The header is
// not synced here; callers rely on the next record's fsync (or sync
// explicitly, as OpenLog's fresh-log pre-creation does).
func (l *Log) newSegment(firstLSN uint64) error {
	name := segName(firstLSN)
	f, err := l.fsys.OpenAppend(join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.BigEndian.PutUint64(hdr[8:], firstLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.cur = f
	l.curName = name
	l.curSize = segHeaderLen
	l.segs = append(l.segs, segInfo{name: name, firstLSN: firstLSN})
	return nil
}

// Replay streams every committed window with LSN > after to fn, in LSN
// order, resolving base-relation schemas through schemas.
func (l *Log) Replay(after uint64, schemas delta.SchemaSource, fn func(Record) error) error {
	if l.cur != nil {
		return fmt.Errorf("wal: replay on a log with open writes")
	}
	return l.replaySegments(l.segs, after, func(lsn uint64, txns int, body []byte) error {
		w, rest, err := delta.DecodeWindow(body, schemas)
		if err != nil {
			return fmt.Errorf("wal: record %d: %w", lsn, err)
		}
		if len(rest) != 0 {
			return fmt.Errorf("wal: record %d: %d trailing bytes", lsn, len(rest))
		}
		return fn(Record{LSN: lsn, Txns: txns, Window: w})
	})
}

// replaySegments streams the valid records of segs with LSN > after to
// fn. It reads segment images as they are on disk, so a reader racing
// an in-flight append stops at the first incomplete frame.
func (l *Log) replaySegments(segs []segInfo, after uint64, fn func(lsn uint64, txns int, body []byte) error) error {
	for _, seg := range segs {
		data, err := l.fsys.ReadFile(join(l.dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", seg.name, err)
		}
		_, recs, _, _ := scanSegment(data)
		for _, rec := range recs {
			if rec.lsn <= after {
				continue
			}
			if err := fn(rec.lsn, rec.txns, rec.body); err != nil {
				return err
			}
		}
	}
	return nil
}

// Prune removes every segment that only holds records with LSN <= upTo,
// i.e. records fully covered by a checkpoint. The last segment is always
// kept so the writer can continue appending to it.
func (l *Log) Prune(upTo uint64) error {
	for len(l.segs) > 1 && l.segs[1].firstLSN <= upTo+1 {
		if err := l.fsys.Remove(join(l.dir, l.segs[0].name)); err != nil {
			return fmt.Errorf("wal: prune %s: %w", l.segs[0].name, err)
		}
		l.segs = l.segs[1:]
	}
	return nil
}

// Close releases the current segment handle. The log stays readable.
func (l *Log) Close() error {
	if l.cur != nil {
		err := l.cur.Close()
		l.cur = nil
		if err != nil {
			return err
		}
	}
	return nil
}

type rawRec struct {
	lsn  uint64
	txns int
	body []byte
}

// scanSegment parses a segment image, returning its header LSN, the
// records of the valid prefix, the byte length of that prefix, and
// whether the header itself was valid. It never panics on corrupt
// input; the first framing, CRC, payload or LSN-continuity violation
// ends the valid prefix.
func scanSegment(data []byte) (hdrLSN uint64, recs []rawRec, valid int, hdrOK bool) {
	if len(data) < segHeaderLen || string(data[:8]) != segMagic {
		return 0, nil, 0, false
	}
	hdrLSN = binary.BigEndian.Uint64(data[8:16])
	if hdrLSN == 0 {
		return 0, nil, 0, false
	}
	hdrOK = true
	valid = segHeaderLen
	next := hdrLSN
	for {
		rest := data[valid:]
		if len(rest) < frameOverhead {
			return
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n == 0 || n > maxRecordLen || uint64(n) > uint64(len(rest)-frameOverhead) {
			return
		}
		payload := rest[frameOverhead : frameOverhead+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return
		}
		lsn, sz := binary.Uvarint(payload)
		if sz <= 0 || lsn != next {
			return
		}
		txns, sz2 := binary.Uvarint(payload[sz:])
		if sz2 <= 0 || txns == 0 || txns > 1<<32 {
			return
		}
		recs = append(recs, rawRec{lsn: lsn, txns: int(txns), body: payload[sz+sz2:]})
		valid += frameOverhead + int(n)
		next = lsn + 1
	}
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstLSN)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
