package grid

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// testFreqs returns a decimated HomePlug AV carrier plan for tests (every
// 8th carrier, 1.8-30 MHz), enough to exercise frequency selectivity.
func testFreqs() []float64 {
	var f []float64
	for x := 1.8e6; x <= 30e6; x += 8 * 24414.0 {
		f = append(f, x)
	}
	return f
}

// lineGrid builds a linear bus: node 0 -- 10m -- 1 -- 10m -- 2 ... all on
// board 0.
func lineGrid(n int, seg float64) *Grid {
	g := New(DefaultConfig())
	prev := g.AddNode(0, 0, 0)
	for i := 1; i < n; i++ {
		cur := g.AddNode(float64(i)*seg, 0, 0)
		g.AddCable(prev, cur, seg)
		prev = cur
	}
	return g
}

func TestCalendar(t *testing.T) {
	if Weekday(0) != 0 {
		t.Fatal("t=0 must be Monday")
	}
	if !IsWeekend(5*Day + 3*time.Hour) {
		t.Fatal("Saturday must be weekend")
	}
	if IsWeekend(4 * Day) {
		t.Fatal("Friday is not weekend")
	}
	if !IsWorkingHours(9 * time.Hour) {
		t.Fatal("Monday 9:00 is working hours")
	}
	if IsWorkingHours(5*Day + 9*time.Hour) {
		t.Fatal("Saturday 9:00 is not working hours")
	}
	if HourOfDay(26*time.Hour) != 2 {
		t.Fatal("hour of day wrap")
	}
}

func TestDijkstraDistances(t *testing.T) {
	g := lineGrid(5, 10)
	if d := g.Dist(0, 4); d != 40 {
		t.Fatalf("Dist(0,4) = %v", d)
	}
	if d := g.Dist(2, 2); d != 0 {
		t.Fatalf("Dist(2,2) = %v", d)
	}
	// Disconnected node.
	iso := g.AddNode(99, 99, 0)
	if d := g.Dist(0, iso); !math.IsInf(d, 1) {
		t.Fatalf("disconnected Dist = %v", d)
	}
}

// Property: graph distance is symmetric and satisfies triangle inequality
// on a random tree.
func TestDistanceMetricProperty(t *testing.T) {
	f := func(seed uint8) bool {
		g := New(DefaultConfig())
		first := g.AddNode(0, 0, 0)
		_ = first
		n := 8
		for i := 1; i < n; i++ {
			parent := NodeID(int(seed) % i)
			id := g.AddNode(float64(i), 0, 0)
			g.AddCable(parent, id, float64(1+int(seed)%7))
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if g.Dist(NodeID(a), NodeID(b)) != g.Dist(NodeID(b), NodeID(a)) {
					return false
				}
				for c := 0; c < n; c++ {
					if g.Dist(NodeID(a), NodeID(b)) > g.Dist(NodeID(a), NodeID(c))+g.Dist(NodeID(c), NodeID(b))+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleRegimes(t *testing.T) {
	g := lineGrid(3, 10)
	pc := g.Plug(ClassDesktopPC, 1)
	light := g.Plug(ClassFluorescent, 1)
	fridge := g.Plug(ClassFridge, 2)

	// Monday noon: PC and lights on.
	noon := 12 * time.Hour
	if !pc.On(noon) {
		t.Fatal("PC off at Monday noon")
	}
	if !light.On(noon) {
		t.Fatal("lights off at Monday noon")
	}
	// Monday 23:00: both off.
	night := 23 * time.Hour
	if pc.On(night) {
		t.Fatal("PC on at Monday 23:00")
	}
	if light.On(night) {
		t.Fatal("lights on at 23:00 (building switches off at 21:00)")
	}
	// Lights off at exactly 21:00.
	if light.On(21*time.Hour + time.Minute) {
		t.Fatal("lights on after 21:00")
	}
	if !light.On(20*time.Hour + 59*time.Minute) {
		t.Fatal("lights off before 21:00")
	}
	// Saturday noon: office gear off.
	sat := 5*Day + 12*time.Hour
	if pc.On(sat) || light.On(sat) {
		t.Fatal("office appliances on during weekend")
	}
	// Fridge duty cycle: on some of the time, off some of the time, at
	// all hours.
	on, off := 0, 0
	for i := 0; i < 600; i++ {
		if fridge.On(time.Duration(i) * time.Minute) {
			on++
		} else {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("compressor never cycles: on=%d off=%d", on, off)
	}
}

func TestRandomDutyDayNight(t *testing.T) {
	g := lineGrid(3, 10)
	var apps []*Appliance
	for i := 0; i < 20; i++ {
		apps = append(apps, g.Plug(ClassPhoneCharger, 1))
	}
	countOn := func(t0 time.Duration) int {
		n := 0
		for _, a := range apps {
			if a.On(t0) {
				n++
			}
		}
		return n
	}
	day, nightc := 0, 0
	for d := 0; d < 5; d++ {
		day += countOn(time.Duration(d)*Day + 11*time.Hour)
		nightc += countOn(time.Duration(d)*Day + 3*time.Hour)
	}
	if day <= nightc {
		t.Fatalf("random-duty appliances should be on more during working hours: day=%d night=%d", day, nightc)
	}
}

func TestStateMaskMatchesOn(t *testing.T) {
	g := lineGrid(4, 10)
	for i := 0; i < 10; i++ {
		g.Plug(ClassPhoneCharger, NodeID(i%4))
	}
	for _, tm := range []time.Duration{0, 11 * time.Hour, 3 * Day, 6 * Day} {
		mask := g.StateMask(tm)
		for i, a := range g.Appliances {
			bit := mask&(1<<uint(i)) != 0
			if bit != a.On(tm) {
				t.Fatalf("mask bit %d mismatch at %v", i, tm)
			}
		}
	}
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	g := lineGrid(11, 10) // 0..10, 100 m bus
	freqs := testFreqs()
	var prev float64 = math.Inf(1)
	for _, dst := range []NodeID{1, 3, 5, 8, 10} {
		l := g.NewLink(0, dst, freqs)
		l.Advance(0)
		snr := l.MeanSNRdB(0)
		if snr >= prev {
			t.Fatalf("SNR did not decrease with distance: %v at node %d (prev %v)", snr, dst, prev)
		}
		prev = snr
	}
}

func TestCleanShortLinkIsExcellent(t *testing.T) {
	g := lineGrid(3, 10)
	l := g.NewLink(0, 2, testFreqs())
	l.Advance(0)
	if snr := l.MeanSNRdB(0); snr < 28 {
		t.Fatalf("clean 20 m link mean SNR = %.1f dB, want >= 28 (near max rate)", snr)
	}
}

func TestBoardCrossingPenalty(t *testing.T) {
	g := New(DefaultConfig())
	a := g.AddNode(0, 0, 0)
	b := g.AddNode(10, 0, 0)
	c := g.AddNode(20, 0, 1) // other board
	g.AddCable(a, b, 10)
	g.AddCable(b, c, 10)
	same := g.NewLink(a, b, testFreqs())
	cross := g.NewLink(a, c, testFreqs())
	same.Advance(0)
	cross.Advance(0)
	gap := same.MeanSNRdB(0) - cross.MeanSNRdB(0)
	if gap < 30 {
		t.Fatalf("cross-board SNR gap = %.1f dB, want >= 30", gap)
	}
}

func TestApplianceNoiseCreatesAsymmetry(t *testing.T) {
	// A loud always-on appliance next to node 2 raises the noise floor
	// there: direction 0→2 should be clearly worse than 2→0 (§5 of the
	// paper: asymmetry from high electrical load near one station).
	g := lineGrid(6, 10)
	noisy := &ApplianceClass{
		Name: "arc-welder", ImpedanceOhms: 12, NoiseDBmHz: -82,
		Schedule: AlwaysOn,
	}
	g.Plug(noisy, 4) // adjacent to node 5's end
	fwd := g.NewLink(0, 5, testFreqs())
	rev := g.NewLink(5, 0, testFreqs())
	fwd.Advance(0)
	rev.Advance(0)
	d := rev.MeanSNRdB(0) - fwd.MeanSNRdB(0)
	if d < 3 {
		t.Fatalf("asymmetry = %.1f dB, want >= 3 (noise near RX of fwd direction)", d)
	}
}

func TestEpochAdvancesOnSwitch(t *testing.T) {
	g := lineGrid(4, 10)
	g.Plug(ClassFluorescent, 2)
	l := g.NewLink(0, 3, testFreqs())
	e1 := l.Advance(12 * time.Hour) // lights on
	e2 := l.Advance(12*time.Hour + time.Minute)
	if e1 != e2 {
		t.Fatal("epoch changed without a switch")
	}
	e3 := l.Advance(22 * time.Hour) // lights now off
	if e3 == e2 {
		t.Fatal("epoch did not change across the 21:00 lights-off event")
	}
}

func TestIncrementalMatchesRebuild(t *testing.T) {
	// Advancing through many switches must agree with a from-scratch
	// link at the same instant (the incremental update is an exact
	// algebraic rearrangement).
	g := lineGrid(8, 10)
	for i := 0; i < 12; i++ {
		g.Plug(ClassPhoneCharger, NodeID(1+i%6))
	}
	g.Plug(ClassFluorescent, 3)
	g.Plug(ClassDesktopPC, 5)

	inc := g.NewLink(0, 7, testFreqs())
	for h := 0; h <= 48; h++ {
		tm := time.Duration(h) * time.Hour
		inc.Advance(tm)
	}
	fresh := g.NewLink(0, 7, testFreqs())
	fresh.Advance(48 * time.Hour)

	for s := 0; s < 6; s++ {
		a := inc.SNRBase(s)
		b := fresh.SNRBase(s)
		for c := range a {
			if math.Abs(a[c]-b[c]) > 1e-6 {
				t.Fatalf("slot %d carrier %d: incremental %.9f vs fresh %.9f", s, c, a[c], b[c])
			}
		}
	}
}

func TestSlotProfilesDifferentiateSlots(t *testing.T) {
	g := lineGrid(4, 10)
	g.Plug(ClassDimmer, 2) // strong slot profile
	l := g.NewLink(0, 3, testFreqs())
	l.Advance(12 * time.Hour) // lights on
	min, max := math.Inf(1), math.Inf(-1)
	for s := 0; s < 6; s++ {
		v := l.MeanSNRdB(s)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max-min < 1 {
		t.Fatalf("per-slot SNR spread = %.2f dB, want >= 1 (invariance-scale variation)", max-min)
	}
}

func TestShiftDBFluctuates(t *testing.T) {
	g := lineGrid(4, 10)
	g.Plug(ClassLabEquipment, 2)
	// RandomDuty: pick a working-hours window where it is on.
	var on time.Duration = -1
	for m := 0; m < 10*60; m++ {
		tm := 9*time.Hour + time.Duration(m)*time.Minute
		if g.Appliances[0].On(tm) {
			on = tm
			break
		}
	}
	if on < 0 {
		t.Skip("appliance never on in window (improbable)")
	}
	l := g.NewLink(0, 3, testFreqs())
	l.Advance(on)
	var vals []float64
	for i := 0; i < 50; i++ {
		vals = append(vals, l.ShiftDB(on+time.Duration(i)*time.Second))
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max-min < 0.2 {
		t.Fatalf("noise shift range = %.3f dB, want some flicker", max-min)
	}
}

func TestShiftDBZeroWhenQuiet(t *testing.T) {
	g := lineGrid(4, 10)
	l := g.NewLink(0, 3, testFreqs())
	l.Advance(0)
	if s := l.ShiftDB(0); s != 0 {
		t.Fatalf("shift with no appliances = %v, want 0", s)
	}
}

func TestImpulseOnSwitch(t *testing.T) {
	g := lineGrid(4, 10)
	light := g.Plug(ClassFluorescent, 2)
	// Find the 21:00 switch-off on Monday.
	sw := 21 * time.Hour
	if light.On(sw + time.Second) {
		t.Fatal("light should be off just after 21:00")
	}
	boost := light.ImpulseBoostDB(sw + 200*time.Millisecond)
	if boost <= 0 {
		t.Fatalf("no impulse right after switching: %v", boost)
	}
	later := light.ImpulseBoostDB(sw + 5*time.Second)
	if later != 0 {
		t.Fatalf("impulse persists too long: %v", later)
	}
}

func BenchmarkAdvanceSwitch(b *testing.B) {
	g := lineGrid(8, 10)
	for i := 0; i < 20; i++ {
		g.Plug(ClassPhoneCharger, NodeID(1+i%6))
	}
	l := g.NewLink(0, 7, testFreqs())
	l.Advance(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Advance(time.Duration(i) * randomDutyCell)
		l.SNRBase(i % 6)
	}
}

// BenchmarkShiftDB is the noise-shift kernel's layer-level number. Each op
// replays one fixed set of instants over an hour of working time — a
// 100 ms sweep of quiet minutes plus the ±800 ms neighbourhood of every
// mask transition, where switching impulses are live — advancing the
// link and reading ShiftDB at each, so the work per op is independent of
// b.N. One untimed replay warms the plane first.
func BenchmarkShiftDB(b *testing.B) {
	g := lineGrid(8, 10)
	for i := 0; i < 20; i++ {
		g.Plug(ClassPhoneCharger, NodeID(1+i%6))
	}
	g.Plug(ClassFluorescent, 3)
	g.Plug(ClassFridge, 5)
	l := g.NewLink(0, 7, testFreqs())

	from, to := 11*time.Hour, 12*time.Hour
	var ts []time.Duration
	for t := from; t < from+2*time.Minute; t += 100 * time.Millisecond {
		ts = append(ts, t)
	}
	ts = append(ts, transitionNeighbourhoods(g, from, to)...)
	replay := func() {
		for _, t := range ts {
			l.Advance(t)
			l.ShiftDB(t)
		}
	}
	replay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/instant")
}
