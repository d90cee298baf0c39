package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestSSEFraming(t *testing.T) {
	long := `{"floor":"paper","seq":3,"states":"` + strings.Repeat("x", 3<<20) + `"}`
	stream := "event: snapshot\nid: 1\ndata: {\"floor\":\"paper\",\"seq\":1,\"full\":true}\n\n" +
		"\n" + // a stray blank line between events is skipped
		"event: diff\nid: 2\ndata: {\"floor\":\"paper\",\"seq\":2,\"full\":false}\n\n" +
		"event: diff\nid: 3\ndata: " + long + "\n\n" +
		"event: end\ndata: \"floor: runtime closed\"\n\n"
	r := newSSEReader(strings.NewReader(stream))
	want := []struct {
		kind eventKind
		id   uint64
		data string
	}{
		{evSnapshot, 1, `{"floor":"paper","seq":1,"full":true}`},
		{evDiff, 2, `{"floor":"paper","seq":2,"full":false}`},
		{evDiff, 3, long},
		{evEnd, 0, `"floor: runtime closed"`},
	}
	total := 0
	for _, w := range want {
		ev, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != w.kind || ev.ID != w.id || string(ev.Data) != w.data || ev.HasID != (w.id != 0) {
			t.Fatalf("event = %v %d %.60q, want %v %d %.60q", ev.Kind, ev.ID, ev.Data, w.kind, w.id, w.data)
		}
		if w.id != 0 {
			if err := checkHead(ev.Data, "paper", ev.ID); err != nil {
				t.Error(err)
			}
		}
		total += ev.Bytes
	}
	if total != len(stream)-1 { // the stray blank line is not an event's
		t.Errorf("framed %d bytes of %d", total, len(stream)-1)
	}
	if _, err := r.next(); !errors.Is(err, io.EOF) {
		t.Errorf("after the last event: %v, want EOF", err)
	}
}

func TestSSEMalformed(t *testing.T) {
	for _, s := range []string{
		"event: patch\nid: 1\ndata: {}\n\n",
		"event: diff\nid: one\ndata: {}\n\n",
		"event: diff\nid: 1\n\n",
		"id: 1\ndata: {}\n\n",
		"retry: 5\n\n",
		"event: diff\nid: 1\ndata: {}", // cut mid-event
	} {
		if _, err := newSSEReader(strings.NewReader(s)).next(); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%q framed without a malformation error (%v)", s, err)
		}
	}
	if checkHead([]byte(`{"floor":"paper","seq":12,`), "paper", 1) == nil ||
		checkHead([]byte(`{"floor":"flat","seq":1,"states":[]}`), "paper", 1) == nil ||
		checkHead(nil, "paper", 1) == nil {
		t.Error("checkHead accepted a foreign head")
	}
}

func TestSeqGapDetection(t *testing.T) {
	type ev struct {
		kind eventKind
		id   uint64
	}
	for _, c := range []struct {
		name    string
		evs     []ev
		bad     int // index of the first rejected event, -1 for none
		resyncs int
	}{
		{"contiguous", []ev{{evSnapshot, 5}, {evDiff, 6}, {evDiff, 7}}, -1, 0},
		{"gap healed by snapshot", []ev{{evSnapshot, 5}, {evDiff, 6}, {evSnapshot, 9}, {evDiff, 10}}, -1, 1},
		{"unhealed gap", []ev{{evSnapshot, 5}, {evDiff, 6}, {evDiff, 8}}, 2, 0},
		{"repeat", []ev{{evSnapshot, 5}, {evDiff, 6}, {evDiff, 6}}, 2, 0},
		{"stale snapshot", []ev{{evSnapshot, 5}, {evDiff, 6}, {evSnapshot, 6}}, 2, 0},
		{"no bootstrap", []ev{{evDiff, 1}}, 0, 0},
	} {
		var tr seqTracker
		bad := -1
		for i, e := range c.evs {
			if err := tr.observe(e.kind, e.id); err != nil {
				bad = i
				break
			}
		}
		if bad != c.bad || tr.resyncs != c.resyncs {
			t.Errorf("%s: rejected at %d with %d resyncs, want %d and %d", c.name, bad, tr.resyncs, c.bad, c.resyncs)
		}
	}
}
