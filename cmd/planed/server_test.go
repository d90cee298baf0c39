package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/floor"
	"repro/internal/testbed"
)

func newTestServer(t *testing.T, ids ...string) (*server, *floor.Fleet) {
	t.Helper()
	opts := testbed.DefaultOptions()
	opts.Decimate = 16
	fleet := floor.NewFleet(11 * time.Hour)
	t.Cleanup(fleet.Close)
	for _, id := range ids {
		rt, err := floor.New(floor.Config{
			ID: id, Scenario: id, Options: opts,
			Start: 11 * time.Hour, Cadence: time.Second, Buffer: 16,
		})
		if err != nil {
			t.Fatalf("floor %s: %v", id, err)
		}
		if err := fleet.Add(rt); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
	}
	return newServer(fleet, opts, time.Second, 16, false, "", "hybrid"), fleet
}

func getJSON(t *testing.T, h http.Handler, url string, into any) int {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if into != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body)
		}
	}
	return rec.Code
}

func TestListAndSnapshotEndpoints(t *testing.T) {
	s, fleet := newTestServer(t, "flat", "paper")
	mux := s.mux()

	// Before the first tick the listing works but snapshots are not up yet.
	var floors []floorInfo
	if code := getJSON(t, mux, "/floors", &floors); code != 200 {
		t.Fatalf("GET /floors = %d", code)
	}
	if len(floors) != 2 || floors[0].ID != "flat" || floors[1].ID != "paper" {
		t.Fatalf("listing wrong: %+v", floors)
	}
	if code := getJSON(t, mux, "/floors/flat/snapshot", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot before first tick = %d, want 503", code)
	}
	if code := getJSON(t, mux, "/floors/nope/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("unknown floor = %d, want 404", code)
	}

	fleet.Advance(time.Second)
	var snap floor.WireUpdate
	if code := getJSON(t, mux, "/floors/flat/snapshot", &snap); code != 200 {
		t.Fatalf("snapshot = %d", code)
	}
	if !snap.Full || snap.Floor != "flat" || len(snap.States) == 0 {
		t.Fatalf("snapshot must be the full versioned floor: %+v", snap)
	}
	if code := getJSON(t, mux, "/floors", &floors); code != 200 || floors[0].Seq == 0 || floors[0].Status != "running" {
		t.Fatalf("listing after tick wrong: %+v", floors)
	}
}

func TestAddAndRemoveFloor(t *testing.T) {
	s, _ := newTestServer(t, "flat")
	mux := s.mux()

	post := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", url, nil))
		return rec
	}
	if rec := post("/floors"); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST without spec = %d, want 400", rec.Code)
	}
	if rec := post("/floors?spec=not-a-scenario"); rec.Code != http.StatusBadRequest {
		t.Fatalf("POST bad spec = %d, want 400", rec.Code)
	}
	rec := post("/floors?spec=paper&id=second")
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST = %d: %s", rec.Code, rec.Body)
	}
	var fi floorInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &fi); err != nil || fi.ID != "second" || fi.Stations == 0 {
		t.Fatalf("created floor wrong: %+v (%v)", fi, err)
	}
	if rec := post("/floors?spec=paper&id=second"); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate id = %d, want 409", rec.Code)
	}

	del := httptest.NewRecorder()
	mux.ServeHTTP(del, httptest.NewRequest("DELETE", "/floors/second", nil))
	if del.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d", del.Code)
	}
	if code := getJSON(t, mux, "/floors/second/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("deleted floor still serves: %d", code)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	id   string
	data string
}

func readEvent(t *testing.T, r *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended mid-event: %v (got %+v)", err, ev)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && ev.name != "":
			return ev
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func TestStreamServesBootstrapDiffsAndEnd(t *testing.T) {
	s, fleet := newTestServer(t, "flat")
	fleet.Advance(time.Second) // two ticks: the stream starts mid-run
	srv := httptest.NewServer(s.mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/floors/flat/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)

	// A mid-run subscriber bootstraps from a full snapshot...
	ev := readEvent(t, r)
	if ev.name != "snapshot" || ev.id != "2" {
		t.Fatalf("bootstrap event wrong: %+v", ev)
	}
	var u floor.WireUpdate
	if err := json.Unmarshal([]byte(ev.data), &u); err != nil || !u.Full || len(u.States) == 0 {
		t.Fatalf("bootstrap payload wrong: %+v (%v)", u, err)
	}

	// ...then receives one diff per tick, ids advancing with the clock.
	rt, _ := fleet.Get("flat")
	for rt.Subscribers() == 0 {
		time.Sleep(time.Millisecond) // wait for the handler to attach
	}
	fleet.Advance(time.Second)
	ev = readEvent(t, r)
	if ev.name != "diff" || ev.id != "3" {
		t.Fatalf("diff event wrong: %+v", ev)
	}
	if err := json.Unmarshal([]byte(ev.data), &u); err != nil || u.Full || u.Seq != 3 {
		t.Fatalf("diff payload wrong: %+v (%v)", u, err)
	}

	// Closing the floor ends every stream with an explanatory event.
	fleet.Close()
	ev = readEvent(t, r)
	if ev.name != "end" || !strings.Contains(ev.data, "closed") {
		t.Fatalf("end event wrong: %+v", ev)
	}
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream must close after end, got %v", err)
	}
}

func TestStreamUnknownFloorIs404(t *testing.T) {
	s, _ := newTestServer(t, "flat")
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/floors/ghost/stream", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("stream of unknown floor = %d, want 404", rec.Code)
	}
}

// TestStalledHeaderIsDisconnected: a client that sends half a request
// header and then goes quiet is disconnected by the server's header
// timeout, while a complete request on the same server is served.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	s, _ := newTestServer(t)
	srv := newHTTPServer("", s.mux())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the fixed %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // same mechanism, a shorter wait
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	resp, err := http.Get("http://" + ln.Addr().String() + "/floors")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /floors HTTP/1.1\r\nHost: planed\r\n"); err != nil {
		t.Fatal(err)
	}
	// Give up (closing our end, which fails the read) well after the
	// server's deadline; a server-side close ends the read with EOF first.
	giveUp := time.AfterFunc(10*time.Second, func() { conn.Close() })
	defer giveUp.Stop()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
}
