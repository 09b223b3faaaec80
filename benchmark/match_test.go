package main

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"
	"time"
)

// One event as internal/server renders it.
const sampleEvent = `{"view":"SumOfSals","seq":7,"window_seq":9,"lsn":0,"txns":1,"changes":[` +
	`{"op":"modify","old":["d0042",1100],"new":["d0042",1130],"count":1},` +
	`{"op":"insert","new":["d0999",100],"count":1},` +
	`{"op":"delete","old":["d0007",90],"count":1}]}`

func parseEvent(t *testing.T, data string) feedEvent {
	t.Helper()
	var ev feedEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestFeedEventDecodesAndFolds(t *testing.T) {
	ev := parseEvent(t, sampleEvent)
	if ev.Seq != 7 || len(ev.Changes) != 3 {
		t.Fatalf("decoded %+v", ev)
	}
	if !ev.sets("d0042", 1130) || ev.sets("d0042", 1100) || ev.sets("d0007", 90) || !ev.sets("d0999", 100) {
		t.Error("sets reads the wrong side of a change")
	}
	image := map[string]int64{"d0042": 1100, "d0007": 90, "d0001": 5}
	ev.fold(image)
	want := map[string]int64{"d0042": 1130, "d0999": 100, "d0001": 5}
	if !maps.Equal(image, want) {
		t.Errorf("folded image %v, want %v", image, want)
	}
}

func TestAwaitEventMatchesByContent(t *testing.T) {
	mk := func(dept string, total int64) feedEvent {
		return parseEvent(t, strings.NewReplacer("d0042", dept, "1130", jsonInt(total)).Replace(sampleEvent))
	}
	events := make(chan feedEvent, 8)
	// A rolled-back raise shows as two events before the one waited for.
	events <- mk("d0100", 9000)
	events <- mk("d0100", 1000)
	events <- mk("d0200", 1234)
	events <- mk("d0300", 1)
	ev, skipped, err := awaitEvent(events, "d0200", 1234, time.Second)
	if err != nil || skipped != 2 || !ev.sets("d0200", 1234) {
		t.Fatalf("got %+v, skipped %d, err %v", ev, skipped, err)
	}
	if len(events) != 1 {
		t.Errorf("%d events left queued, want the one after the match", len(events))
	}
	if _, _, err := awaitEvent(events, "d0200", 1234, 20*time.Millisecond); err == nil {
		t.Error("no matching event, yet no timeout")
	}
	close(events)
	if _, _, err := awaitEvent(events, "d0200", 1234, time.Second); err == nil {
		t.Error("closed feed, yet no error")
	}
}

func jsonInt(n int64) string {
	b, _ := json.Marshal(n)
	return string(b)
}
