package wal

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/value"
)

var update = flag.Bool("update", false, "rewrite the feed golden image under testdata/")

const (
	goldenDir      = "testdata/feed40"
	goldenRecords  = 40
	goldenSegBytes = 512
)

func feedSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "K", Type: value.String},
		catalog.Column{Name: "V", Type: value.Int},
	)
}

func feedSchemas(schema *catalog.Schema) delta.SchemaSource {
	return func(string) (*catalog.Schema, bool) { return schema, true }
}

func feedWindow(schema *catalog.Schema, i int) delta.Coalesced {
	d := delta.New(schema)
	d.Insert(value.Tuple{value.NewString("k"), value.NewInt(int64(i))}, 1)
	return delta.Coalesced{{Rel: "view_T", Delta: d}}
}

// goldenRecord is record i of the fixed feed stream the golden image
// and the crash tests use: one to three changes on view_T plus a
// deletion on view_U every fourth record; every seventh record covers
// zero transactions and no WAL LSN, as the rollback compensations of
// older journals do; the window
// sequence skips values the way empty windows make it.
func goldenRecord(schema *catalog.Schema, i int) FeedRecord {
	d := delta.New(schema)
	for j := 0; j <= i%3; j++ {
		d.Insert(value.Tuple{value.NewString(fmt.Sprintf("k%02d", i)), value.NewInt(int64(10*i + j))}, int64(1+j))
	}
	views := delta.Coalesced{{Rel: "view_T", Delta: d}}
	if i%4 == 0 {
		u := delta.New(schema)
		u.Delete(value.Tuple{value.NewString("u"), value.NewInt(int64(-i))}, 1)
		views = append(views, delta.RelDelta{Rel: "view_U", Delta: u})
	}
	r := FeedRecord{Seq: uint64(i), WindowSeq: uint64(i + i/4), LSN: uint64(3 * i), Txns: i%5 + 1, Views: views}
	if i%7 == 0 {
		r.Txns, r.LSN = 0, 0
	}
	return r
}

func goldenAppend(f *FeedLog, schema *catalog.Schema, i int) (uint64, error) {
	r := goldenRecord(schema, i)
	return f.Append(r.WindowSeq, r.LSN, r.Txns, r.Views)
}

// sameFeedRecord reports whether a replayed record equals the appended
// one, comparing the views by their encoding.
func sameFeedRecord(a, b FeedRecord) bool {
	return a.Seq == b.Seq && a.WindowSeq == b.WindowSeq && a.LSN == b.LSN && a.Txns == b.Txns &&
		bytes.Equal(delta.AppendWindow(nil, a.Views), delta.AppendWindow(nil, b.Views))
}

// TestFeedLogRoundTrip appends records across a reopen and replays them
// back, including a zero-transaction record (txns=0), which the segment
// format reserves as an invalid frame marker and the feed log must
// therefore bias around.
func TestFeedLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := feedSchema()

	f, err := OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		txns := i
		if i == 2 {
			txns = 0 // an older journal's rollback compensation
		}
		seq, err := f.Append(uint64(i), uint64(100+i), txns, feedWindow(schema, i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after reopen = %d, want 3", got)
	}
	if _, err := f.Append(4, 104, 2, feedWindow(schema, 4)); err != nil {
		t.Fatal(err)
	}

	var recs []FeedRecord
	if err := f.Replay(1, feedSchemas(schema), func(r FeedRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replay after=1 returned %d records, want 3", len(recs))
	}
	wantTxns := []int{0, 3, 2}
	for i, r := range recs {
		if r.Seq != uint64(i+2) || r.WindowSeq != uint64(i+2) || r.LSN != uint64(102+i) {
			t.Fatalf("record %d = seq %d window %d lsn %d", i, r.Seq, r.WindowSeq, r.LSN)
		}
		if r.Txns != wantTxns[i] {
			t.Fatalf("record %d txns = %d, want %d", i, r.Txns, wantTxns[i])
		}
		if len(r.Views) != 1 || r.Views[0].Rel != "view_T" || len(r.Views[0].Delta.Changes) != 1 {
			t.Fatalf("record %d views = %+v", i, r.Views)
		}
	}
}

// TestFeedLogTornTail truncates the newest segment mid-frame (a crash
// while an un-fsynced append was in flight) and requires reopen to keep
// the valid prefix and continue the sequence from there.
func TestFeedLogTornTail(t *testing.T) {
	dir := t.TempDir()
	schema := feedSchema()

	f, err := OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := f.Append(uint64(i), uint64(i), 1, feedWindow(schema, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no feed segments in %s (%v)", dir, err)
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last frame: far enough back to destroy it, not far
	// enough to reach the second record.
	if err := os.Truncate(seg, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	f, err = OpenFeedLog(OSFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", got)
	}
	if _, err := f.Append(3, 3, 1, feedWindow(schema, 3)); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := f.Replay(0, feedSchemas(schema), func(r FeedRecord) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("replay after torn tail = %v, want [1 2 3]", seqs)
	}
}

// TestFeedLogGolden pins the changefeed's on-disk format: the segment
// files of a fixed 40-record stream, rotating at 512 bytes, must be
// byte-identical to the committed image, so feed directories written by
// earlier builds still resume. Regenerate with -update only for a
// deliberate format change.
func TestFeedLogGolden(t *testing.T) {
	dir := t.TempDir()
	schema := feedSchema()
	f, err := OpenFeedLog(OSFS{}, dir, Options{SegmentBytes: goldenSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= goldenRecords; i++ {
		if seq, err := goldenAppend(f, schema, i); err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq %d, err %v", i, seq, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 3 {
		t.Fatalf("golden stream wrote %d segments, want a rotation", len(got))
	}
	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range got {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want, err := OSFS{}.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("segment files %v, golden image has %v", got, want)
	}
	for _, name := range want {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("segment %s differs from the golden image (%d vs %d bytes)", name, len(g), len(w))
		}
	}
}

// TestFeedLogCrashEveryPoint crashes an append/rotate/close run of the
// feed at every mutating filesystem operation, with torn tails and bit
// flips. The feed is not fsynced per append, so any prefix may survive,
// but it must be a prefix: Replay(0) yields exactly the first k records
// appended, and the next Append continues at k+1.
func TestFeedLogCrashEveryPoint(t *testing.T) {
	schema := feedSchema()
	const n, dir = 24, "feed"
	opts := Options{SegmentBytes: goldenSegBytes}
	run := func(fsys *FaultFS) error {
		f, err := OpenFeedLog(fsys, dir, opts)
		if err != nil {
			return err
		}
		for i := 1; i <= n; i++ {
			if _, err := goldenAppend(f, schema, i); err != nil {
				return err
			}
		}
		return f.Close()
	}
	ref := NewFaultFS(1)
	if err := run(ref); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := ref.Ops()
	if total < n {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	for crashAt := 1; crashAt <= total; crashAt++ {
		t.Run(fmt.Sprintf("op%03d", crashAt), func(t *testing.T) {
			fsys := NewFaultFS(uint64(crashAt)*2654435761 + 3)
			fsys.TornTail = true
			fsys.FlipBit = true
			fsys.SetCrashAfter(crashAt)
			if err := run(fsys); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash at op %d surfaced as %v, want ErrCrashed", crashAt, err)
			}
			fsys.Reboot()
			f, err := OpenFeedLog(fsys, dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			k := 0
			if err := f.Replay(0, feedSchemas(schema), func(r FeedRecord) error {
				k++
				if want := goldenRecord(schema, k); !sameFeedRecord(r, want) {
					return fmt.Errorf("replayed record %d = %+v, want %+v", k, r, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if f.LastSeq() != uint64(k) {
				t.Fatalf("LastSeq %d after replaying %d records", f.LastSeq(), k)
			}
			if seq, err := goldenAppend(f, schema, k+1); err != nil || seq != uint64(k+1) {
				t.Fatalf("append after recovery: seq %d err %v, want %d", seq, err, k+1)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFeedReplayDuringAppend replays in a loop while the writer appends
// across rotations: every replay sees a contiguous prefix of what was
// appended, never an error, and the last one sees all of it.
func TestFeedReplayDuringAppend(t *testing.T) {
	schema := feedSchema()
	const n = 200
	f, err := OpenFeedLog(OSFS{}, t.TempDir(), Options{SegmentBytes: goldenSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replay := func() (int, error) {
		k := 0
		err := f.Replay(0, feedSchemas(schema), func(r FeedRecord) error {
			k++
			if want := goldenRecord(schema, k); !sameFeedRecord(r, want) {
				return fmt.Errorf("replayed record %d = %+v, want %+v", k, r, want)
			}
			return nil
		})
		return k, err
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var readerErr error
	replays := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := replay(); err != nil {
				readerErr = err
				return
			}
			replays++
		}
	}()
	for i := 1; i <= n; i++ {
		if _, err := goldenAppend(f, schema, i); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if readerErr != nil {
		t.Fatalf("replay during append (after %d clean replays): %v", replays, readerErr)
	}
	t.Logf("%d replays ran during the appends", replays)
	if k, err := replay(); err != nil || k != n {
		t.Fatalf("final replay: %d records, err %v; want %d", k, err, n)
	}
}

// syncCountFS counts Sync calls on every file it opens.
type syncCountFS struct {
	FS
	syncs int
}

func (c *syncCountFS) OpenAppend(path string) (File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &syncCountFile{File: f, fs: c}, nil
}

type syncCountFile struct {
	File
	fs *syncCountFS
}

func (f *syncCountFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// TestFeedLogSyncsOnlyOnOpenAndClose pins the feed's durability policy
// and its accounting: appends across rotations call no Sync and leave
// the WAL's counters (wal.records, wal.bytes, wal.fsync.ns) and the
// flight recorder's fsync events untouched, which a WAL commit on the
// same filesystem does move.
func TestFeedLogSyncsOnlyOnOpenAndClose(t *testing.T) {
	prev := obs.SetFlight(obs.NewFlight(256))
	defer obs.SetFlight(prev)
	fsyncEvents := func() int {
		n := 0
		for _, e := range obs.Flight().Events() {
			if e.Type == obs.EvFsyncStart || e.Type == obs.EvFsyncDone {
				n++
			}
		}
		return n
	}
	type walCounts struct{ recs, bytes, fsyncs int64 }
	counts := func() walCounts { return walCounts{walRecs.Value(), walBytes.Value(), fsyncNs.Count()} }

	schema := feedSchema()
	fsys := &syncCountFS{FS: NewFaultFS(1)}
	f, err := OpenFeedLog(fsys, "feed", Options{SegmentBytes: goldenSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	opened, before, recs0 := fsys.syncs, counts(), feedRecs.Value()
	for i := 1; i <= goldenRecords; i++ {
		if _, err := goldenAppend(f, schema, i); err != nil {
			t.Fatal(err)
		}
	}
	if fsys.syncs != opened {
		t.Fatalf("%d appends made %d Syncs, want none", goldenRecords, fsys.syncs-opened)
	}
	if got := counts(); got != before {
		t.Fatalf("feed appends moved the WAL counters: %+v -> %+v", before, got)
	}
	if got := fsyncEvents(); got != 0 {
		t.Fatalf("feed appends recorded %d flight fsync events", got)
	}
	if got := feedRecs.Value() - recs0; got != goldenRecords {
		t.Fatalf("feed.records moved by %d, want %d", got, goldenRecords)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fsys.syncs != opened+1 {
		t.Fatalf("Close made %d Syncs, want 1", fsys.syncs-opened)
	}

	l, err := OpenLog(fsys, "wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	synced := fsys.syncs
	if _, err := l.CommitWindow(testWindow(testSchema(), 1), 1); err != nil {
		t.Fatal(err)
	}
	if got := counts(); fsys.syncs != synced+1 || got.recs != before.recs+1 || got.bytes <= before.bytes || got.fsyncs != before.fsyncs+1 {
		t.Fatalf("WAL commit: %d Syncs, counters %+v -> %+v", fsys.syncs-synced, before, got)
	}
	if got := fsyncEvents(); got != 2 {
		t.Fatalf("WAL commit recorded %d flight fsync events, want 2", got)
	}
}

// TestFeedLogCloseReportsSyncError crashes the filesystem on the Sync
// that Close makes: Close must report it rather than claim the feed's
// tail reached disk.
func TestFeedLogCloseReportsSyncError(t *testing.T) {
	schema := feedSchema()
	fsys := NewFaultFS(7)
	f, err := OpenFeedLog(fsys, "feed", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := goldenAppend(f, schema, i); err != nil {
			t.Fatal(err)
		}
	}
	fsys.SetCrashAfter(fsys.Ops() + 1)
	if err := f.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Close with a failing Sync returned %v, want ErrCrashed", err)
	}
}
