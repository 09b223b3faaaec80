package obs

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFlightRecordAndDecode(t *testing.T) {
	f := NewFlight(64)
	f.Record(EvWindowOpen, 0, 1, 64, 99)
	f.Record(EvCheckpoint, 3, 1, 40, 0)
	f.Record(EvFsyncStart, 0, 7, 128, 0)
	f.Record(EvFsyncDone, 0, 7, 128, 0)

	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Type != EvWindowOpen || evs[0].A != 1 || evs[0].B != 64 || evs[0].C != 99 {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if evs[1].Shard != 3 {
		t.Fatalf("shard lost: %+v", evs[1])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %v then %v", evs[i-1], evs[i])
		}
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("timestamps regress: %v then %v", evs[i-1], evs[i])
		}
	}

	// Dump → decode must roundtrip.
	evs2, _, err := DecodeFlight(f.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs2) != len(evs) {
		t.Fatalf("roundtrip lost events: %d vs %d", len(evs2), len(evs))
	}
	for i := range evs {
		if evs[i] != evs2[i] {
			t.Fatalf("event %d changed in roundtrip: %+v vs %+v", i, evs[i], evs2[i])
		}
	}
}

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(64) // min size
	const total = 200
	for i := uint64(1); i <= total; i++ {
		f.Record(EvWindowOpen, 0, i, 0, 0)
	}
	if f.Total() != total {
		t.Fatalf("total %d, want %d", f.Total(), total)
	}
	evs := f.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(evs))
	}
	// The retained window is exactly the newest 64, in order.
	for i, e := range evs {
		want := uint64(total - 64 + i + 1)
		if e.Seq != want || e.A != want {
			t.Fatalf("slot %d: seq %d a %d, want %d", i, e.Seq, e.A, want)
		}
	}
}

func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlight(1024)
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Record(EvGCPause, uint16(g), uint64(i), 0, 0)
				if i%16 == 0 {
					f.Events() // readers race writers by design
				}
			}
		}(g)
	}
	wg.Wait()
	if f.Total() != goroutines*each {
		t.Fatalf("total %d, want %d", f.Total(), goroutines*each)
	}
	evs := f.Events()
	if len(evs) != 1024 {
		t.Fatalf("ring holds %d, want 1024", len(evs))
	}
}

func TestFlightRecordNoAllocs(t *testing.T) {
	f := NewFlight(256)
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(EvFsyncStart, 0, 1, 2, 3)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}

func TestFlightDisabled(t *testing.T) {
	f := NewFlight(64)
	f.SetEnabled(false)
	f.Record(EvWindowOpen, 0, 1, 0, 0)
	if f.Total() != 0 {
		t.Fatal("disabled recorder stored an event")
	}
	f.SetEnabled(true)
	f.Record(EvWindowOpen, 0, 1, 0, 0)
	if f.Total() != 1 {
		t.Fatal("re-enabled recorder dropped an event")
	}
	// Nil recorder is a no-op, not a panic.
	var nilF *FlightRecorder
	nilF.Record(EvWindowOpen, 0, 1, 0, 0)
	nilF.SetEnabled(true)
	if nilF.Events() != nil || nilF.Dump() != nil || nilF.Total() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightFileBacking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.bin")
	f, err := OpenFlightFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	f.Record(EvCheckpoint, 0, 42, 0, 0)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := DecodeFlight(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EvCheckpoint || evs[0].A != 42 {
		t.Fatalf("file image wrong: %+v", evs)
	}
}

func TestSetFlightSwap(t *testing.T) {
	repl := NewFlight(64)
	old := SetFlight(repl)
	defer SetFlight(old)
	Flight().Record(EvGCPause, 0, 123, 0, 0)
	if repl.Total() != 1 {
		t.Fatal("swap did not route records to the new recorder")
	}
	if got := SetFlight(old); got != repl {
		t.Fatal("SetFlight did not return the previous recorder")
	}
	SetFlight(old)
	if _, _, err := DecodeFlight([]byte("not a flight image, way too short to matter much")); err == nil {
		t.Fatal("garbage image decoded without error")
	}
}
