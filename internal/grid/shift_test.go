package grid

import (
	"math"
	"math/bits"
	"testing"
	"time"
)

// scheduleClasses gives, per schedule kind, the standard classes that
// exercise it, plus a silent class (no flicker, no impulse) so the
// kernel's zero-term paths are covered too.
var scheduleClasses = map[ScheduleKind][]*ApplianceClass{
	AlwaysOn: {ClassRouter, ClassServerRack, {
		Name: "silent", ImpedanceOhms: 50, NoiseDBmHz: -120, Schedule: AlwaysOn,
	}},
	OfficeHours: {ClassDesktopPC},
	Lights:      {ClassFluorescent, ClassDimmer},
	RandomDuty:  {ClassPhoneCharger, ClassKettle, ClassLabEquipment},
	Compressor:  {ClassFridge, ClassVendingMachine},
}

// referenceFactor is the noise-shift factor straight from the appliance's
// reference definitions, with no plane caching at all.
func referenceFactor(a *Appliance, t time.Duration) float64 {
	return math.Pow(10, (a.FlickerDB(t)+a.ImpulseBoostDB(t))/10)
}

// referenceShiftDB recomputes Link.ShiftDB from the reference factors,
// summing in the same (ascending-bit) order as the kernel.
func referenceShiftDB(l *Link, t time.Duration) float64 {
	base, moved := l.p.bgW, l.p.bgW
	on := l.g.StateMask(t) & l.pg.reachBits & l.site.wBits
	for rest := on; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		w := l.site.noiseW[i]
		base += w
		moved += w * referenceFactor(l.g.Appliances[i], t)
	}
	return 10 * math.Log10(moved/base)
}

// planeFactor reads the kernel's factor for appliance i at t the way
// ShiftDB does: one locked sync, then the cached per-appliance factor.
func planeFactor(p *Plane, t time.Duration, i int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncShift(t, 0, false)
	return p.shiftFactor(t, i)
}

// transitionNeighbourhoods lists τ-800ms … τ+800ms in 50 ms steps around
// every mask transition τ in [from, to) — the instants where a switching
// impulse is live, about to start, or just decayed.
func transitionNeighbourhoods(g *Grid, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for _, tr := range g.MaskTransitions(from, to)[1:] {
		for d := -800 * time.Millisecond; d <= 800*time.Millisecond; d += 50 * time.Millisecond {
			out = append(out, tr.At+d)
		}
	}
	return out
}

// liveImpulses counts the (instant, appliance) pairs with a nonzero
// switching impulse, so the oracle provably covers the fallback path.
func liveImpulses(g *Grid, ts []time.Duration) int {
	n := 0
	for _, tt := range ts {
		for _, a := range g.Appliances {
			if a.ImpulseBoostDB(tt) != 0 {
				n++
			}
		}
	}
	return n
}

// shuffled returns a deterministic permutation of ts.
func shuffled(ts []time.Duration, seed uint64) []time.Duration {
	out := append([]time.Duration(nil), ts...)
	r := lcg(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// checkFactors asserts that the kernel's factor and ShiftDB are
// bit-identical to the reference definitions at every instant, in the
// order given. Instants alternate between entering the plane through a
// bare factor read (the plane looks the mask interval up itself) and
// through an advanced link's ShiftDB (the link's cached interval).
func checkFactors(t *testing.T, label string, g *Grid, l *Link, ts []time.Duration) {
	t.Helper()
	checkShift := func(tt time.Duration) {
		l.Advance(tt)
		if got, want := l.ShiftDB(tt), referenceShiftDB(l, tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: ShiftDB at %v = %v, reference %v", label, tt, got, want)
		}
	}
	for k, tt := range ts {
		if k%2 == 1 {
			checkShift(tt)
		}
		for i, a := range g.Appliances {
			got, want := planeFactor(l.p, tt, i), referenceFactor(a, tt)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: appliance %d (%s) at %v: factor %v, reference %v",
					label, i, a.Class.Name, tt, got, want)
			}
		}
		if k%2 == 0 {
			checkShift(tt)
		}
	}
}

// TestShiftFactorMatchesReference is the bit-identity oracle of the
// noise-shift kernel: for every schedule kind, Plane.shiftFactor (and
// Link.ShiftDB on top of it) must equal the uncached reference
// definitions Appliance.FlickerDB and Appliance.ImpulseBoostDB bit for
// bit — around every transition of a weekday (live, pending and decayed
// impulses), in shuffled order (cache misses, backward jumps, flicker
// block skips of 0, +1 and +n), at negative instants, and after a
// mid-run Plug invalidates the timeline.
func TestShiftFactorMatchesReference(t *testing.T) {
	for kind := AlwaysOn; kind <= Compressor; kind++ {
		classes := scheduleClasses[kind]
		t.Run(classes[0].Name, func(t *testing.T) {
			g := lineGrid(6, 10)
			for k := 0; k < 6; k++ {
				g.Plug(classes[k%len(classes)], NodeID(1+k%4))
			}
			l := g.NewLink(0, 5, testFreqs())
			// The very first read lands in flicker block 0, which an
			// empty memo must not mistake for a cached block.
			checkFactors(t, "first read", g, l, []time.Duration{500 * time.Millisecond})

			tuesday := Day
			ts := transitionNeighbourhoods(g, tuesday, tuesday+Day)
			if kind != AlwaysOn && liveImpulses(g, ts) == 0 {
				t.Fatalf("%s: no live switching impulse on a weekday", classes[0].Name)
			}
			// Quiet stretches between transitions, and a flicker-block
			// boundary crossed in sub-block steps.
			for k := 0; k < 60; k++ {
				ts = append(ts, tuesday+11*time.Hour+time.Duration(k)*250*time.Millisecond)
			}
			checkFactors(t, "in order", g, l, ts)
			checkFactors(t, "shuffled", g, l, shuffled(ts, 7))

			var neg []time.Duration
			for d := -3 * time.Second; d <= time.Second; d += 50 * time.Millisecond {
				neg = append(neg, d, -Day+7*time.Hour+30*time.Minute+d)
			}
			checkFactors(t, "negative", g, l, neg)

			// A mid-run Plug changes the mask function: every cached
			// interval and per-instant factor must be re-derived. The
			// pivot sits just after the lights switch off: for most kinds
			// provably quiet before the Plug (the timeline is warmed 5 s
			// earlier, so the interval reaches back past the impulse
			// window), with a live impulse after it.
			pivot := tuesday + 21*time.Hour + 300*time.Millisecond
			checkFactors(t, "before Plug", g, l, []time.Duration{pivot - 5*time.Second, pivot})
			g.Plug(ClassFluorescent, 2)
			g.Plug(ClassKettle, 3)
			l2 := g.NewLink(0, 5, testFreqs())
			checkFactors(t, "after Plug, same instant", g, l2, []time.Duration{pivot})
			// A link not yet advanced past the Plug holds a stale
			// interval; its ShiftDB must not leak it into the shared
			// per-instant cache.
			stale := pivot + 100*time.Millisecond
			l.ShiftDB(stale)
			checkFactors(t, "after Plug, stale link", g, l2, []time.Duration{stale})
			// Nor may a read ahead of the link's last Advance take the
			// link's interval as proof past that interval's end.
			tau := g.MaskTransitions(tuesday, tuesday+Day)[1].At
			l2.Advance(tau - 2*time.Second)
			l2.ShiftDB(tau + 200*time.Millisecond)
			checkFactors(t, "read ahead of Advance", g, l2, []time.Duration{tau + 200*time.Millisecond})
			after := transitionNeighbourhoods(g, tuesday, tuesday+Day)
			after = append(after, ts[len(ts)-60:]...)
			checkFactors(t, "after Plug", g, l2, after)
			checkFactors(t, "after Plug, shuffled", g, l2, shuffled(after, 11))
			checkFactors(t, "after Plug, old link", g, l, shuffled(after, 13))
		})
	}
}
