// Black-box post-mortem: a subprocess runs a durable workload with an
// mmap-backed flight recorder, is SIGKILLed mid-run, and the parent
// cross-checks the surviving flight image against the WAL the killed
// process left behind. The recorder's ordering contract (fsync-start
// before the record's bytes reach the filesystem, fsync-done only after
// fsync returns) pins the recovered LSN between the image's last done
// and last start events.
package wal_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/wal"
)

var flightKillCfg = corpus.Figure5Config{Items: 12, RPerItem: 2, SPerItem: 2}

// TestFlightKillHelper is the subprocess body: it only runs when
// re-exec'd by TestFlightKillDump with FLIGHT_KILL_HELPER=1.
func TestFlightKillHelper(t *testing.T) {
	if os.Getenv("FLIGHT_KILL_HELPER") != "1" {
		t.Skip("subprocess helper; driven by TestFlightKillDump")
	}
	dir := os.Getenv("FLIGHT_KILL_DIR")
	f, err := obs.OpenFlightFile(filepath.Join(dir, "flight.bin"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetFlight(f)
	db, _, m := buildFig5(t, flightKillCfg, nil)
	if _, err := wal.Attach(m, db.Catalog, wal.OSFS{}, filepath.Join(dir, "wal"),
		wal.Options{SegmentBytes: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	// Enough windows that the parent's kill lands mid-run: each window
	// fsyncs, so this loop takes seconds.
	windows := genWindows(db, flightKillCfg, 4096, 8)
	for i, w := range windows {
		if _, err := m.ApplyBatch(w); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fmt.Println("FLIGHT_HELPER_READY")
		}
	}
}

func TestFlightKillDump(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("kill-surviving flight file needs the linux mmap backing")
	}
	if os.Getenv("FLIGHT_KILL_HELPER") == "1" {
		t.Skip("inside helper")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFlightKillHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "FLIGHT_KILL_HELPER=1", "FLIGHT_KILL_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stdout)
	ready := make(chan error, 1)
	go func() {
		for {
			line, err := br.ReadString('\n')
			if strings.Contains(line, "FLIGHT_HELPER_READY") {
				ready <- nil
				return
			}
			if err != nil {
				ready <- fmt.Errorf("helper exited before ready: %w", err)
				return
			}
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("helper not ready within 60s")
	}
	go io.Copy(io.Discard, br) // keep the pipe drained until the kill
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	// The mmap'd image must decode despite the hard kill.
	data, err := os.ReadFile(filepath.Join(dir, "flight.bin"))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := obs.DecodeFlight(data)
	if err != nil {
		t.Fatalf("flight image left by killed process does not decode: %v", err)
	}
	var maxStart, maxDone, windowsOpened uint64
	for _, e := range evs {
		switch e.Type {
		case obs.EvFsyncStart:
			if e.A > maxStart {
				maxStart = e.A
			}
		case obs.EvFsyncDone:
			if e.A > maxDone {
				maxDone = e.A
			}
		case obs.EvWindowOpen:
			windowsOpened++
		}
	}
	if windowsOpened == 0 || maxStart == 0 {
		t.Fatalf("flight image missing expected events: %d windows, maxStart %d (%d events)",
			windowsOpened, maxStart, len(evs))
	}

	// Recover the WAL the killed process left and pin its tip against
	// the black box: every fsync the recorder saw complete is durable,
	// and nothing can be durable whose write did not at least follow a
	// recorded start — except the one record that may have been written
	// between its write() and its start event landing (SIGKILL preserves
	// completed writes without any fsync), hence the +1.
	db2 := corpus.Figure5Database(flightKillCfg)
	rec, err := wal.BeginRecovery(db2.Catalog, db2.Store, wal.OSFS{}, filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ro := rec.RestoreOptions()
	_, m2 := buildOn(t, db2, &ro)
	mgr, err := rec.Resume(m2, wal.Options{SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	recovered := mgr.RecoveredLSN
	t.Logf("flight: %d events, %d windows opened, fsync start<=%d done<=%d; recovered LSN %d",
		len(evs), windowsOpened, maxStart, maxDone, recovered)
	if recovered < maxDone {
		t.Fatalf("recovered LSN %d behind last recorded fsync-done %d: durable commit lost", recovered, maxDone)
	}
	if recovered > maxStart+1 {
		t.Fatalf("recovered LSN %d ahead of last recorded fsync-start %d+1: flight recorder missed commits", recovered, maxStart)
	}
}
