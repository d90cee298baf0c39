package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the id of the span that caused
// it (0 for a root); ids start at 1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and hands out id 0, so call sites need no branches.
// Safe for concurrent use: fleet tenants tick on their own goroutines.
type tracer struct {
	on   bool
	base time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on }

// open starts a span and returns its id.
func (t *tracer) open(name string, parent int, start time.Time) int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start.Sub(t.base)})
	return len(t.spans)
}

// close ends the span id at end.
func (t *tracer) close(id int, end time.Time) {
	if !t.enabled() || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.base)
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := t.open(name, parent, start)
	t.close(id, end)
	return id
}

// all returns a copy of the recorded spans in id order.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children (tenants ticking in parallel) count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanStats summarises one span name in the trace file.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// byName aggregates the spans' durations and self times per name.
func byName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := make(map[string]spanStats)
	for i, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += ms(s.dur())
		st.SelfMs += ms(self[i])
		out[s.Name] = st
	}
	return out
}

// durationsMs lists the durations of every span called name, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write saves the spans and their per-name summary as JSON.
func (t *tracer) write(path string) error {
	spans := t.all()
	doc := struct {
		Spans  []span               `json:"spans"`
		ByName map[string]spanStats `json:"by_name"`
	}{spans, byName(spans)}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
