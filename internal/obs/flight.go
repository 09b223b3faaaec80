package obs

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// FlightRecorder is the engine's black box: a lock-free fixed-slot
// binary event ring that is always on. Producers (window open/fence,
// fsync start/done, GC pauses, checkpoints, recoveries) record
// with a handful of atomic stores — no locks, no allocations — so the
// recorder can sit on the hottest paths without moving the allocs/txn
// ceiling. When a crash test fails or a process is killed mid-run, the
// ring is what tells you what the system was doing at the moment of
// death.
//
// # Layout and ownership rule
//
// The ring is a flat []uint64: an 8-word header followed by n slots of
// 6 words each. Every word is read and written ONLY with atomic ops —
// that is the single ownership rule, and it is what lets the same
// layout back either a heap slice or an mmap'd file (OpenFlightFile on
// linux) so a SIGKILL'd process leaves a decodable image behind.
//
//	header: [magic, slotCount, epochWallNs, seq, reserved×4]
//	slot:   [ticket, tsNs, type<<48|shard<<32, a, b, c]
//
// A writer claims a ticket with one atomic add on header word 3, fills
// the slot's payload words, and stores the ticket word LAST — a reader
// that sees ticket t knows the payload words were written by ticket t's
// writer unless a full ring lap raced it, which the decoder detects by
// re-reading the ticket after the payload (torn slots are skipped, not
// mis-reported). This is a flight recorder, not an audit log: under a
// pathological lap race a slot is dropped, never invented.
type FlightRecorder struct {
	words []uint64
	n     uint64 // slot count
	epoch time.Time

	disabled atomic.Bool

	// persistPath + close hook come from the file backing (if any).
	path   string
	closer func([]uint64) error
}

const (
	flightMagic   = 0x4d56464c49544531 // "MVFLITE1"
	flightHdr     = 8                  // header words
	flightSlotLen = 6                  // words per slot

	// DefaultFlightSlots sizes the process-wide ring: 8192 events ≈
	// several hundred batch-64 windows of history in 384 KiB.
	DefaultFlightSlots = 8192
)

// Flight-recorder event types. A/B/C meanings per type:
//
//	EvWindowOpen   A=window seq  B=txns in window    C=root span ID
//	EvWindowFence  A=window seq  B=commit LSN        C=1 on error
//	EvFsyncStart   A=LSN         B=bytes in segment
//	EvFsyncDone    A=LSN         B=bytes in segment
//	EvGCPause      A=pause ns    B=GC cycle number
//	EvCheckpoint   A=LSN
//	EvRecovery     A=recovered LSN  B=windows replayed
const (
	EvWindowOpen uint16 = 1 + iota
	EvWindowFence
	_ // 3 was the shard-route event; the kinds after it keep their numbers
	EvFsyncStart
	EvFsyncDone
	EvGCPause
	EvCheckpoint
	EvRecovery
)

var flightEvNames = [...]string{
	EvWindowOpen:  "window_open",
	EvWindowFence: "window_fence",
	EvFsyncStart:  "fsync_start",
	EvFsyncDone:   "fsync_done",
	EvGCPause:     "gc_pause",
	EvCheckpoint:  "checkpoint",
	EvRecovery:    "recovery",
}

// FlightEventName returns the symbolic name of an event type.
func FlightEventName(t uint16) string {
	if int(t) < len(flightEvNames) && flightEvNames[t] != "" {
		return flightEvNames[t]
	}
	return fmt.Sprintf("ev_%d", t)
}

// NewFlight returns a heap-backed recorder with the given slot count
// (minimum 64, rounded up to a power of two so the ring index is a
// mask).
func NewFlight(slots int) *FlightRecorder {
	n := uint64(64)
	for int(n) < slots {
		n <<= 1
	}
	f := &FlightRecorder{
		words: make([]uint64, flightHdr+n*flightSlotLen),
		n:     n,
		epoch: time.Now(),
	}
	f.initHeader()
	return f
}

func (f *FlightRecorder) initHeader() {
	atomic.StoreUint64(&f.words[0], flightMagic)
	atomic.StoreUint64(&f.words[1], f.n)
	atomic.StoreUint64(&f.words[2], uint64(f.epoch.UnixNano()))
	atomic.StoreUint64(&f.words[3], 0)
}

// SetEnabled turns recording on or off (the obs-overhead gate measures
// the recorder's cost by toggling this; production leaves it on).
func (f *FlightRecorder) SetEnabled(on bool) {
	if f != nil {
		f.disabled.Store(!on)
	}
}

// Enabled reports whether Record stores events.
func (f *FlightRecorder) Enabled() bool {
	return f != nil && !f.disabled.Load()
}

// Record stores one event. Zero allocations, no locks: one atomic add
// to claim a ticket plus six atomic stores into the slot.
func (f *FlightRecorder) Record(ev uint16, shard uint16, a, b, c uint64) {
	if f == nil || f.disabled.Load() {
		return
	}
	ticket := atomic.AddUint64(&f.words[3], 1)
	base := flightHdr + ((ticket-1)&(f.n-1))*flightSlotLen
	ts := uint64(time.Since(f.epoch).Nanoseconds())
	atomic.StoreUint64(&f.words[base+1], ts)
	atomic.StoreUint64(&f.words[base+2], uint64(ev)<<48|uint64(shard)<<32)
	atomic.StoreUint64(&f.words[base+3], a)
	atomic.StoreUint64(&f.words[base+4], b)
	atomic.StoreUint64(&f.words[base+5], c)
	atomic.StoreUint64(&f.words[base+0], ticket)
}

// FlightEvent is one decoded recorder event.
type FlightEvent struct {
	Seq   uint64 `json:"seq"`
	TS    int64  `json:"ts_ns"` // ns since the recorder's epoch
	Type  uint16 `json:"type"`
	Shard uint16 `json:"shard,omitempty"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
	C     uint64 `json:"c,omitempty"`
}

// Name returns the event's symbolic type name.
func (e FlightEvent) Name() string { return FlightEventName(e.Type) }

// String renders one event as a log-style line.
func (e FlightEvent) String() string {
	return fmt.Sprintf("%10d %14dns %-13s shard=%d a=%d b=%d c=%d",
		e.Seq, e.TS, e.Name(), e.Shard, e.A, e.B, e.C)
}

// Events decodes the live ring, oldest first. Torn slots (a writer
// lapped the reader mid-slot) are skipped.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	return decodeWords(f.words)
}

// Total returns how many events have ever been recorded (the ring keeps
// the most recent min(Total, slots)).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return atomic.LoadUint64(&f.words[3])
}

func decodeWords(words []uint64) []FlightEvent {
	if len(words) < flightHdr || atomic.LoadUint64(&words[0]) != flightMagic {
		return nil
	}
	n := atomic.LoadUint64(&words[1])
	if n == 0 || uint64(len(words)) < flightHdr+n*flightSlotLen {
		return nil
	}
	out := make([]FlightEvent, 0, n)
	for s := uint64(0); s < n; s++ {
		base := flightHdr + s*flightSlotLen
		ticket := atomic.LoadUint64(&words[base])
		if ticket == 0 || (ticket-1)&(n-1) != s {
			continue
		}
		e := FlightEvent{
			Seq: ticket,
			TS:  int64(atomic.LoadUint64(&words[base+1])),
			A:   atomic.LoadUint64(&words[base+3]),
			B:   atomic.LoadUint64(&words[base+4]),
			C:   atomic.LoadUint64(&words[base+5]),
		}
		packed := atomic.LoadUint64(&words[base+2])
		e.Type = uint16(packed >> 48)
		e.Shard = uint16(packed >> 32)
		if atomic.LoadUint64(&words[base]) != ticket {
			continue // lapped mid-read
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump serializes the ring (header + slots) as little-endian bytes —
// the artifact format written into WAL_FAILURE_DIR and served by
// /debug/flight?format=bin.
func (f *FlightRecorder) Dump() []byte {
	if f == nil {
		return nil
	}
	out := make([]byte, len(f.words)*8)
	for i := range f.words {
		binary.LittleEndian.PutUint64(out[i*8:], atomic.LoadUint64(&f.words[i]))
	}
	return out
}

// DumpToFile writes Dump() to path (0644).
func (f *FlightRecorder) DumpToFile(path string) error {
	if f == nil {
		return nil
	}
	return os.WriteFile(path, f.Dump(), 0o644)
}

// DecodeFlight parses a Dump() image (or, on little-endian hosts, the
// raw bytes of an mmap-backed flight file left behind by a killed
// process) and returns its events oldest-first plus the recorder's
// epoch wall-clock time.
func DecodeFlight(data []byte) ([]FlightEvent, time.Time, error) {
	if len(data) < flightHdr*8 {
		return nil, time.Time{}, fmt.Errorf("flight: short image (%d bytes)", len(data))
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	if words[0] != flightMagic {
		return nil, time.Time{}, fmt.Errorf("flight: bad magic %#x", words[0])
	}
	epoch := time.Unix(0, int64(words[2]))
	evs := decodeWords(words)
	return evs, epoch, nil
}

// FormatEvents renders the most recent max events (0 = all) as text,
// one line per event, newest last.
func FormatEvents(evs []FlightEvent, max int) string {
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %16s %-13s %s\n", "seq", "ts", "event", "detail")
	for _, e := range evs {
		fmt.Fprintln(&b, e.String())
	}
	return b.String()
}

// Close releases any file backing (munmap on linux). The heap-backed
// recorder's Close is a no-op.
func (f *FlightRecorder) Close() error {
	if f == nil || f.closer == nil {
		return nil
	}
	c := f.closer
	f.closer = nil
	return c(f.words)
}

// Path returns the backing file path ("" for heap-backed recorders).
func (f *FlightRecorder) Path() string {
	if f == nil {
		return ""
	}
	return f.path
}

// flightPtr holds the process-wide recorder. An atomic pointer so tests
// and file-backed startups can swap it while producers run.
var flightPtr atomic.Pointer[FlightRecorder]

func init() {
	flightPtr.Store(NewFlight(DefaultFlightSlots))
}

// Flight returns the process-wide flight recorder (always non-nil).
func Flight() *FlightRecorder { return flightPtr.Load() }

// SetFlight installs f as the process-wide recorder and returns the
// previous one. Pass the result back to restore it (tests), or Close a
// file-backed previous recorder when done.
func SetFlight(f *FlightRecorder) *FlightRecorder {
	if f == nil {
		f = NewFlight(DefaultFlightSlots)
	}
	return flightPtr.Swap(f)
}
