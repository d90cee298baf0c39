package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/floor"
	"repro/internal/testbed"
)

// trafficOf unmarshals the wire update's traffic field into the
// flow-summary map, failing when it is absent.
func trafficOf(t *testing.T, u floor.WireUpdate) map[string]any {
	t.Helper()
	m, ok := u.Traffic.(map[string]any)
	if !ok || m == nil {
		t.Fatalf("update seq %d lacks the flow summary: %+v", u.Seq, u.Traffic)
	}
	return m
}

// TestAddFloorWithWorkloadServesFlowSummaries: ?wl=/?policy= admit a
// traffic-loaded tenant whose snapshots carry the flow summary, while
// bare tenants keep a traffic-free wire format; bad selections fail
// admission with 400, not the floor's first tick.
func TestAddFloorWithWorkloadServesFlowSummaries(t *testing.T) {
	s, fleet := newTestServer(t, "flat")
	mux := s.mux()

	post := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", url, nil))
		return rec
	}
	if rec := post("/floors?spec=paper&id=bad&wl=not-a-workload"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad ?wl= = %d, want 400: %s", rec.Code, rec.Body)
	}
	if rec := post("/floors?spec=paper&id=bad&wl=steady&policy=teleport"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad ?policy= = %d, want 400: %s", rec.Code, rec.Body)
	}
	if rec := post("/floors?spec=paper&id=loaded&wl=steady&policy=greedy"); rec.Code != http.StatusCreated {
		t.Fatalf("POST traffic-loaded floor = %d: %s", rec.Code, rec.Body)
	}

	for i := 0; i < 5; i++ {
		fleet.Advance(time.Second)
	}

	var snap floor.WireUpdate
	if code := getJSON(t, mux, "/floors/loaded/snapshot", &snap); code != 200 {
		t.Fatalf("snapshot = %d", code)
	}
	sum := trafficOf(t, snap)
	for _, key := range []string{"at_s", "active_flows", "arrivals", "completed_flows", "fairness", "delivered_mbps", "queued_bytes"} {
		if _, ok := sum[key]; !ok {
			t.Fatalf("flow summary lacks %q: %v", key, sum)
		}
	}
	if sum["arrivals"].(float64) <= 0 {
		t.Fatalf("after 5s of steady workload no flow ever arrived: %v", sum)
	}

	// The bare tenant stays a pure metric plane.
	var bare floor.WireUpdate
	if code := getJSON(t, mux, "/floors/flat/snapshot", &bare); code != 200 {
		t.Fatalf("bare snapshot = %d", code)
	}
	if bare.Traffic != nil {
		t.Fatalf("bare floor grew a flow summary: %+v", bare.Traffic)
	}
}

// TestAddFloorWorkloadDefaultsAndOptOut: the daemon-level -wl default
// applies to tenants admitted over HTTP, and ?wl=none opts one out.
func TestAddFloorWorkloadDefaultsAndOptOut(t *testing.T) {
	opts := testbed.DefaultOptions()
	opts.Decimate = 16
	fleet := floor.NewFleet(11 * time.Hour)
	t.Cleanup(fleet.Close)
	s := newServer(fleet, opts, time.Second, 16, false, "bursty", "hybrid")
	mux := s.mux()

	for _, url := range []string{"/floors?spec=flat&id=defaulted", "/floors?spec=flat&id=bare&wl=none"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", url, nil))
		if rec.Code != http.StatusCreated {
			t.Fatalf("POST %s = %d: %s", url, rec.Code, rec.Body)
		}
	}
	fleet.Advance(time.Second)

	var snap floor.WireUpdate
	if code := getJSON(t, mux, "/floors/defaulted/snapshot", &snap); code != 200 {
		t.Fatalf("snapshot = %d", code)
	}
	trafficOf(t, snap) // daemon default reached the tenant
	var bare floor.WireUpdate
	if code := getJSON(t, mux, "/floors/bare/snapshot", &bare); code != 200 {
		t.Fatalf("snapshot = %d", code)
	}
	if bare.Traffic != nil {
		t.Fatalf("?wl=none tenant still carries traffic: %+v", bare.Traffic)
	}
}

// TestTrafficStreamResyncCoherentCounters: a slow subscriber of a
// traffic-loaded floor is resynchronised through ring drops without the
// flow summary's cumulative counters (arrivals, completions) ever going
// backwards — the summary rides the same publication lock as the link
// states, so a resync snapshot can never show an older traffic plane
// than a diff already delivered.
func TestTrafficStreamResyncCoherentCounters(t *testing.T) {
	opts := testbed.DefaultOptions()
	opts.Decimate = 16
	fleet := floor.NewFleet(11 * time.Hour)
	t.Cleanup(fleet.Close)
	tf, err := trafficFactory("bursty", "hybrid", "flat", opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := floor.New(floor.Config{
		ID: "flat", Scenario: "flat", Options: opts,
		Start: 11 * time.Hour, Cadence: time.Second, Buffer: 2, Traffic: tf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Add(rt); err != nil {
		t.Fatal(err)
	}
	s := newServer(fleet, opts, time.Second, 2, false, "", "hybrid")
	// The handler is held at its first flush (after subscribing and
	// writing the bootstrap) until the ticks below are published, so it
	// lags its ring deterministically instead of racing the publisher.
	release := make(chan struct{})
	mux := s.mux()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(gatedFlusher{w, release}, r)
	}))
	defer srv.Close()

	fleet.Advance(time.Second) // first tick so the stream bootstraps
	type result struct {
		resp *http.Response
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/floors/flat/stream")
		got <- result{resp, err}
	}()

	for rt.Subscribers() == 0 {
		time.Sleep(time.Millisecond) // wait for the handler to attach
	}
	// Outrun the subscriber's 2-slot ring: the handler must recover via
	// resync snapshots rather than deliver a torn or stale view.
	const ticks = 48
	for i := 0; i < ticks; i++ {
		fleet.Advance(time.Second)
	}
	close(release)
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	r := bufio.NewReader(res.resp.Body)

	var (
		lastSeq       uint64
		lastArrivals  float64
		lastCompleted float64
		resyncs       int
		events        int
	)
	for {
		ev := readEvent(t, r)
		var u floor.WireUpdate
		if err := json.Unmarshal([]byte(ev.data), &u); err != nil {
			t.Fatalf("event %q: %v", ev.data, err)
		}
		if u.Seq <= lastSeq && events > 0 {
			t.Fatalf("sequence went backwards: %d after %d", u.Seq, lastSeq)
		}
		if ev.name == "snapshot" && events > 0 {
			resyncs++
			if !u.Full {
				t.Fatalf("resync event is not a full snapshot: %+v", u)
			}
		}
		sum := trafficOf(t, u)
		arr, comp := sum["arrivals"].(float64), sum["completed_flows"].(float64)
		if arr < lastArrivals || comp < lastCompleted {
			t.Fatalf("cumulative counters went backwards across %s seq %d: arrivals %v -> %v, completed %v -> %v",
				ev.name, u.Seq, lastArrivals, arr, lastCompleted, comp)
		}
		lastSeq, lastArrivals, lastCompleted = u.Seq, arr, comp
		events++
		if u.Seq >= ticks+1 {
			break
		}
	}
	if resyncs == 0 {
		t.Fatalf("subscriber never lagged its 2-slot ring across %d ticks — resync path untested", ticks)
	}
	if events >= ticks+1 {
		t.Fatalf("slow subscriber received every one of %d events through a 2-slot ring", events)
	}
}

// gatedFlusher holds every Flush until release is closed.
type gatedFlusher struct {
	http.ResponseWriter
	release <-chan struct{}
}

func (g gatedFlusher) Flush() {
	<-g.release
	g.ResponseWriter.(http.Flusher).Flush()
}
