package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "advance", Start: 0, End: 10 * ms},
		// Two tenants ticking in parallel overlap on [3,5]: covered once.
		{ID: 2, Parent: 1, Name: "tenant", Start: 1 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "tenant", Start: 3 * ms, End: 6 * ms},
		// A child outliving its parent counts only inside the parent.
		{ID: 4, Parent: 1, Name: "tenant", Start: 8 * ms, End: 12 * ms},
		{ID: 5, Parent: 2, Name: "snapshot", Start: 2 * ms, End: 4 * ms},
		{ID: 6, Name: "drain", Start: 12 * ms, End: 13 * ms},
	}
	want := []time.Duration{10*ms - 5*ms - 2*ms, 4*ms - 2*ms, 3 * ms, 4 * ms, 2 * ms, 1 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	st := byName(spans)["tenant"]
	if st.Count != 3 || st.TotalMs != 11 || st.SelfMs != 9 {
		t.Errorf("tenant summary = %+v", st)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	off := newTracer(false)
	for _, tr := range []*tracer{nilTracer, off} {
		id := tr.open("x", 0, time.Now())
		tr.close(id, time.Now())
		if id != 0 || tr.add("y", 0, time.Now(), time.Now()) != 0 {
			t.Fatalf("disabled tracer handed out an id")
		}
	}
	if len(off.all()) != 0 {
		t.Fatal("disabled tracer kept spans")
	}
	on := newTracer(true)
	p := on.open("parent", 0, on.base)
	c := on.add("child", p, on.base.Add(time.Millisecond), on.base.Add(2*time.Millisecond))
	on.close(p, on.base.Add(3*time.Millisecond))
	got := on.all()
	if len(got) != 2 || got[c-1].Parent != p || got[p-1].dur() != 3*time.Millisecond {
		t.Fatalf("spans = %+v", got)
	}
}
