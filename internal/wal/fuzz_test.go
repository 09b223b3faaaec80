package wal

import (
	"bytes"
	"testing"

	"repro/internal/catalog"
	"repro/internal/delta"
	"repro/internal/value"
)

// FuzzWALDecode drives the segment scanner, the window decoder and the
// checkpoint decoder with arbitrary bytes. The invariants are the
// recovery contract: a decoder returns a clean prefix of valid records
// — it never panics, never reads out of bounds, never invents a record
// past the first corruption, and re-scanning the valid prefix it
// reported yields exactly the same records.
func FuzzWALDecode(f *testing.F) {
	s := testSchema()

	// Seed: a healthy three-record segment.
	l3 := func() []byte {
		dir := f.TempDir()
		l, err := OpenLog(OSFS{}, dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if _, err := l.CommitWindow(testWindow(s, i), 1); err != nil {
				f.Fatal(err)
			}
		}
		l.Close()
		names, _ := OSFS{}.ReadDir(dir)
		data, _ := OSFS{}.ReadFile(join(dir, names[0]))
		return data
	}()
	f.Add(l3)
	// Truncated tails at several cut points (torn records, torn header).
	for _, cut := range []int{len(l3) - 1, len(l3) - 7, len(l3) / 2, segHeaderLen + 3, segHeaderLen, 8, 0} {
		if cut >= 0 && cut <= len(l3) {
			f.Add(l3[:cut])
		}
	}
	// Corrupt CRC in the last record.
	crcFlip := append([]byte(nil), l3...)
	crcFlip[len(crcFlip)-1] ^= 0x40
	f.Add(crcFlip)
	// Torn multi-record write: valid prefix + garbage.
	f.Add(append(append([]byte(nil), l3...), 0xde, 0xad, 0x00, 0x01))
	// Bad header magic.
	badHdr := append([]byte(nil), l3...)
	badHdr[0] = 'X'
	f.Add(badHdr)
	// A checkpoint image, so the fuzzer explores that decoder too.
	ck := (&Checkpoint{LSN: 3, ViewSetKey: "{N1}", Meta: map[string]string{"k": "v"}}).encode()
	f.Add(ck)

	schemas := func(rel string) (*catalog.Schema, bool) {
		if rel == "T" {
			return s, true
		}
		return nil, false
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		hdrLSN, recs, valid, hdrOK := scanSegment(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid=%d out of [0,%d]", valid, len(data))
		}
		if !hdrOK {
			if valid != 0 || len(recs) != 0 {
				t.Fatalf("invalid header but valid=%d recs=%d", valid, len(recs))
			}
			return
		}
		// LSN continuity within the reported prefix: the scanner must
		// never invent out-of-sequence records.
		for i, r := range recs {
			if r.lsn != hdrLSN+uint64(i) {
				t.Fatalf("record %d has LSN %d, want %d", i, r.lsn, hdrLSN+uint64(i))
			}
		}
		// Prefix stability: scanning exactly the valid prefix the
		// scanner reported yields the same records again.
		h2, recs2, valid2, ok2 := scanSegment(data[:valid])
		if !ok2 || h2 != hdrLSN || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("rescan of valid prefix diverged: ok=%v h=%d valid=%d recs=%d",
				ok2, h2, valid2, len(recs2))
		}
		for i := range recs {
			if !bytes.Equal(recs[i].body, recs2[i].body) {
				t.Fatalf("record %d body diverged on rescan", i)
			}
		}
		// Window decode of surviving bodies must not panic; errors are
		// fine (the fuzzer may synthesize CRC-valid frames).
		for _, r := range recs {
			delta.DecodeWindow(r.body, schemas)
		}
	})
}

// FuzzFeedDecode opens arbitrary bytes as a changefeed's only segment,
// the way every resume reads the feed from disk: OpenFeedLog and Replay
// never panic, and Replay yields a contiguous prefix 1..k or an error.
func FuzzFeedDecode(f *testing.F) {
	schema := feedSchema()
	// Seed: a healthy eight-record segment, as the feed writes it.
	seg := func() []byte {
		dir := f.TempDir()
		fl, err := OpenFeedLog(OSFS{}, dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			if _, err := goldenAppend(fl, schema, i); err != nil {
				f.Fatal(err)
			}
		}
		fl.Close()
		data, err := OSFS{}.ReadFile(join(dir, segName(1)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add(seg)
	for _, cut := range []int{len(seg) - 1, len(seg) - 9, len(seg) / 2, segHeaderLen + 3, segHeaderLen, 0} {
		f.Add(seg[:cut])
	}
	flip := append([]byte(nil), seg...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := NewFaultFS(1)
		h, err := fsys.OpenAppend(join("feed", segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(data); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenFeedLog(fsys, "feed", Options{})
		if err != nil {
			t.Fatal(err)
		}
		var next uint64 = 1
		err = fl.Replay(0, feedSchemas(schema), func(r FeedRecord) error {
			if r.Seq != next || r.Txns < 0 {
				t.Fatalf("replayed seq %d (txns %d), want %d", r.Seq, r.Txns, next)
			}
			next++
			return nil
		})
		if err == nil && next-1 != fl.LastSeq() {
			t.Fatalf("clean replay stopped at %d, LastSeq %d", next-1, fl.LastSeq())
		}
	})
}

// FuzzWALDecodeRaw feeds arbitrary bytes straight into the lower-level
// decoders, which recovery trusts to fail cleanly on any input.
func FuzzWALDecodeRaw(f *testing.F) {
	s := testSchema()
	d := delta.New(s)
	d.Insert(value.Tuple{value.NewInt(9), value.NewString("seed")}, 1)
	f.Add(delta.AppendWindow(nil, delta.Coalesced{{Rel: "T", Delta: d}}))
	f.Add((&Checkpoint{LSN: 1, ViewSetKey: "{}", Meta: nil}).encode())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff})
	schemas := func(rel string) (*catalog.Schema, bool) {
		if rel == "T" {
			return s, true
		}
		return nil, false
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		delta.DecodeWindow(data, schemas)
		decodeCheckpoint(data)
		value.DecodeValue(data)
		delta.DecodeTuple(data)
	})
}
