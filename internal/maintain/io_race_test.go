package maintain_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/txn"
)

// TestStoreIOConcurrentResetAndRead pins the IOCounter concurrency
// contract: the store's shared counter may be snapshotted, totalled and
// Reset by a monitoring goroutine (a /metrics scrape, a periodic
// stats dump) while the batch pipeline is charging it. Run under -race
// this is the regression test for the atomic charge paths; the values
// a racing Reset produces are unspecified, so the test asserts only
// that maintenance itself stays correct and race-free.
func TestStoreIOConcurrentResetAndRead(t *testing.T) {
	mir := buildMirror(t, 1234)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := mir.db.Store.IO.Snapshot()
			_ = snap.Total()
			if i%7 == 0 {
				mir.db.Store.IO.Reset()
			}
		}
	}()

	txnRng := rand.New(rand.NewSource(99))
	for w := 0; w < 8; w++ {
		var window []txn.Transaction
		for i := 0; i < 6; i++ {
			ty, updates := corpus.RandomTxn(txnRng, mir.db, mir.cfg, w*100+i)
			if ty == nil {
				continue
			}
			window = append(window, txn.Transaction{Type: ty, Updates: updates})
		}
		if _, err := mir.m.ApplyBatch(window); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	close(stop)
	wg.Wait()

	// A concurrent Reset scrambles accounting, never contents.
	if drift, err := mir.m.Drift(mir.checked[0]); err != nil {
		t.Fatal(err)
	} else if drift != "" {
		t.Fatalf("root view drifted: %s", drift)
	}
}
