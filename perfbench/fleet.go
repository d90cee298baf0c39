package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/al"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/floor/fanout"
	"repro/internal/scenario"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// The fleet workload hosts five traffic-loaded tenants of unequal
// weight in one process and ticks them in a closed loop: each
// Fleet.Advance(1s) is followed by draining every tenant's subscriber
// through floor.WireBytes, as the SSE handler does. The first ticks
// (the first PreTick sounds every PLC link) are warm-up, counted in
// setup_s; a fixed number of ticks is then timed.
const (
	fleetStart    = 11 * time.Hour
	fleetCadence  = time.Second
	fleetDecimate = 16
	fleetWarmup   = 5
	fleetWindow   = 600
)

// fleetTenants are the hosted floors; spec may hold %d for the seed.
var fleetTenants = []struct{ id, spec string }{
	{"apartment", "apartment"},
	{"flat", "flat"},
	{"gen", "gen:stations=40;boards=2;seed=%d"},
	{"large-office", "large-office"},
	{"paper", "paper"},
}

func tenantSpec(spec string, seed int64) string {
	if strings.Contains(spec, "%d") {
		return fmt.Sprintf(spec, seed)
	}
	return spec
}

// tenantProbe times one tenant's tick phases from inside the hooks
// floor.Config accepts. Phase 2 of AdvanceTo is exactly
// Topology.Snapshot, so the interval between the traffic pre-tick
// hook's return and the on-tick hook's entry is the snapshot.
type tenantProbe struct {
	id     string
	tr     *tracer
	parent *atomic.Int64 // span id of the fleet.advance in progress
	rt     *floor.Runtime
	watch  sync.WaitGroup

	// Touched only by the tenant's own tick, which AdvanceTo serialises.
	tick   int
	preEnd time.Time
	prev   []al.LinkState
	// Per-medium totals over the traced ticks: links, links that moved,
	// links whose version held; and active flows.
	ticks   float64
	links   [2]float64
	changed [2]float64
	same    [2]float64
	flows   float64
}

func (p *tenantProbe) preTick(time.Duration) {
	p.tick = p.tr.open("tenant.tick."+p.id, int(p.parent.Load()), time.Now())
}

func (p *tenantProbe) wrap(pre func(time.Duration), on func(time.Duration, *al.Snapshot) any) (func(time.Duration), func(time.Duration, *al.Snapshot) any) {
	tracedPre := func(t time.Duration) {
		begin := time.Now()
		pre(t)
		p.preEnd = time.Now()
		p.tr.add("traffic.pretick."+p.id, p.tick, begin, p.preEnd)
	}
	tracedOn := func(t time.Duration, snap *al.Snapshot) any {
		begin := time.Now()
		p.tr.add("al.snapshot."+p.id, p.tick, p.preEnd, begin)
		sum := on(t, snap)
		end := time.Now()
		p.tr.add("traffic.tick."+p.id, p.tick, begin, end)
		p.count(snap, sum)
		// The publication is readable once AdvanceTo releases the
		// runtime's lock; Seq blocks on that lock.
		tick := p.tick
		p.watch.Add(1)
		go func() {
			defer p.watch.Done()
			p.rt.Seq()
			now := time.Now()
			p.tr.add("floor.publish."+p.id, tick, end, now)
			p.tr.close(tick, now)
		}()
		return sum
	}
	return tracedPre, tracedOn
}

// count tallies the tick's links per medium, and how many moved or kept
// their version since the previous tick.
func (p *tenantProbe) count(snap *al.Snapshot, sum any) {
	states := snap.States()
	p.ticks++
	for i, st := range states {
		m := 0
		if st.Medium == core.WiFi {
			m = 1
		}
		p.links[m]++
		if i >= len(p.prev) {
			p.changed[m]++
			continue
		}
		old := p.prev[i]
		switch {
		case st.VersionOK && old.VersionOK && st.Version == old.Version:
			p.same[m]++
		case st.Changed(old):
			p.changed[m]++
		}
	}
	p.prev = append(p.prev[:0], states...)
	if s, ok := sum.(traffic.Summary); ok {
		p.flows += float64(s.ActiveFlows)
	}
}

// fleetRep is one assembled fleet with a subscriber per tenant.
type fleetRep struct {
	fleet  *floor.Fleet
	rts    []*floor.Runtime
	subs   []*fanout.Sub[floor.Update]
	probes []*tenantProbe
	parent atomic.Int64
	last   []uint64 // last seq drained per tenant
}

func newFleetRep(seed int64, tr *tracer, newS map[string][]float64) (*fleetRep, error) {
	r := &fleetRep{fleet: floor.NewFleet(fleetStart)}
	opts := testbed.DefaultOptions()
	opts.Decimate, opts.Seed = fleetDecimate, seed
	for _, t := range fleetTenants {
		spec := tenantSpec(t.spec, seed)
		if _, err := scenario.Parse(spec); err != nil {
			r.close()
			return nil, err
		}
		wl, err := traffic.ResolveFor("auto", spec)
		if err != nil {
			r.close()
			return nil, err
		}
		var p *tenantProbe
		if tr.enabled() {
			p = &tenantProbe{id: t.id, tr: tr, parent: &r.parent}
		}
		cfg := floor.Config{
			ID: t.id, Scenario: spec, Options: opts, Start: fleetStart, Cadence: fleetCadence,
			Traffic: func(topo *al.Topology) (func(time.Duration), func(time.Duration, *al.Snapshot) any, error) {
				pol, err := traffic.ParsePolicy("hybrid")
				if err != nil {
					return nil, nil, err
				}
				h, err := traffic.NewHooks(topo, wl, traffic.EngineConfig{Policy: pol, Seed: seed})
				if err != nil {
					return nil, nil, err
				}
				if p == nil {
					return h.PreTick, h.OnTick, nil
				}
				pre, on := p.wrap(h.PreTick, h.OnTick)
				return pre, on, nil
			},
		}
		if p != nil {
			cfg.PreTick = p.preTick
		}
		begin := time.Now()
		rt, err := floor.New(cfg)
		if err != nil {
			r.close()
			return nil, err
		}
		end := time.Now()
		tr.add("floor.new."+t.id, 0, begin, end)
		newS[t.id] = append(newS[t.id], end.Sub(begin).Seconds())
		if err := r.fleet.Add(rt); err != nil {
			rt.Close()
			r.close()
			return nil, err
		}
		if p != nil {
			p.rt = rt
			r.probes = append(r.probes, p)
		}
		sub, _, _ := rt.Subscribe()
		r.rts = append(r.rts, rt)
		r.subs = append(r.subs, sub)
	}
	r.last = make([]uint64, len(r.rts))
	return r, nil
}

func (r *fleetRep) close() {
	for _, s := range r.subs {
		s.Close()
	}
	r.fleet.Close()
}

// tickStats is what one drained fleet tick delivered.
type tickStats struct{ pubs, bytes, dropped int }

// tick advances the fleet one cadence and drains every subscriber,
// hashing each publication's wire bytes into h (when non-nil).
func (r *fleetRep) tick(tr *tracer, h hash.Hash) (adv time.Duration, st tickStats, err error) {
	begin := time.Now()
	root := tr.open("fleet.advance", 0, begin)
	r.parent.Store(int64(root))
	r.fleet.Advance(fleetCadence)
	end := time.Now()
	tr.close(root, end)
	for _, p := range r.probes {
		p.watch.Wait()
	}
	drain := tr.open("fleet.drain", 0, time.Now())
	for i, sub := range r.subs {
		dspan := tr.open("fanout.drain."+r.rts[i].ID(), drain, time.Now())
		for {
			u, dropped, ok := sub.TryNext()
			if !ok {
				break
			}
			st.dropped += int(dropped)
			if u.Seq != r.last[i]+1+dropped {
				return 0, st, fmt.Errorf("tenant %s: seq %d after %d with %d dropped", r.rts[i].ID(), u.Seq, r.last[i], dropped)
			}
			r.last[i] = u.Seq
			eBegin := time.Now()
			data, err := floor.WireBytes(u)
			if err != nil {
				return 0, st, fmt.Errorf("tenant %s: encode: %w", r.rts[i].ID(), err)
			}
			tr.add("wire.encode."+r.rts[i].ID(), dspan, eBegin, time.Now())
			if h != nil {
				h.Write(data)
			}
			st.pubs++
			st.bytes += len(data)
		}
		tr.close(dspan, time.Now())
	}
	tr.close(drain, time.Now())
	return end.Sub(begin), st, nil
}

func runFleet(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	tr := newTracer(cfg.trace)
	var (
		setups, windows, cpus, advMs []float64
		untracedW, tracedW           []float64
		bytesPerPub                  []float64
		dropped                      int
		newS                         = map[string][]float64{}
		digest                       string
		probes                       []*tenantProbe
	)
	minReps := 1
	if cfg.trace {
		minReps = 2
	}
	err := reps(cfg, minReps, func(rep int) (time.Duration, error) {
		traced := cfg.trace && rep%2 == 1
		rtr := tr
		if !traced {
			rtr = nil
		}
		sBegin := time.Now()
		r, err := newFleetRep(cfg.seed, rtr, newS)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		defer r.close()
		for i := 0; i < fleetWarmup; i++ {
			if _, _, err := r.tick(rtr, nil); err != nil {
				return 0, err
			}
		}
		setups = append(setups, time.Since(sBegin).Seconds())
		for _, p := range r.probes {
			p.ticks, p.links, p.changed, p.same, p.flows = 0, [2]float64{}, [2]float64{}, [2]float64{}, 0
		}
		probes = append(probes, r.probes...)

		h := sha256.New()
		var pubs, bytes, drops int
		before, err := selfUsage()
		if err != nil {
			return 0, err
		}
		begin := time.Now()
		for i := 0; i < fleetWindow; i++ {
			d, st, err := r.tick(rtr, h)
			if err != nil {
				return 0, err
			}
			advMs = append(advMs, ms(d))
			pubs += st.pubs
			bytes += st.bytes
			drops += st.dropped
		}
		wall := time.Since(begin)
		after, err := selfUsage()
		if err != nil {
			return 0, err
		}
		o.attempted += int64(fleetWindow * len(r.rts))
		o.failed += int64(drops)
		if drops > 0 {
			o.problem("repetition %d: %d publications dropped", rep, drops)
		}
		for _, rt := range r.rts {
			if err := rt.Err(); err != nil {
				o.failed++
				o.problem("tenant %s failed: %v", rt.ID(), err)
			}
		}
		if pubs != fleetWindow*len(r.rts) {
			o.problem("repetition %d: %d publications, want %d", rep, pubs, fleetWindow*len(r.rts))
		}
		d := fmt.Sprintf("%x", h.Sum(nil))
		switch {
		case digest == "":
			digest = d
		case d != digest:
			o.problem("repetition %d (traced %v) wire digest %s differs from %s", rep, traced, d[:16], digest[:16])
		}
		windows = append(windows, wall.Seconds())
		cpus = append(cpus, (after.CPU - before.CPU).Seconds())
		bytesPerPub = append(bytesPerPub, float64(bytes)/float64(max(pubs, 1)))
		dropped += drops
		if traced {
			tracedW = append(tracedW, wall.Seconds())
		} else {
			untracedW = append(untracedW, wall.Seconds())
		}
		return time.Since(sBegin), nil
	})
	if err != nil {
		return nil, err
	}
	ru, err := selfUsage()
	if err != nil {
		return nil, err
	}
	o.note("wire digest %s over %d repetitions of %d ticks x %d tenants", digest, len(windows), fleetWindow, len(fleetTenants))
	o.note("windows %s s; op = one tenant-tick", fmtList(windows))
	o.e2e["setup_s"] = median(setups)
	o.e2e["work_s"] = median(windows)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["peak_rss_mb"] = float64(ru.MaxRSSK) / 1024
	o.e2e["ops_per_s"] = float64(fleetWindow*len(fleetTenants)) / median(windows)

	if cfg.trace {
		fleetLayers(o, tr, newS, probes)
		p90, err := percentile(advMs, 0.9)
		if err != nil {
			return nil, err
		}
		o.layer["fleet.advance_p90_ms"] = p90
		o.layer["wire.bytes_per_pub"] = median(bytesPerPub)
		o.layer["fanout.dropped"] = float64(dropped)
		o.layer["trace.overhead_pct"] = overheadPct(untracedW, tracedW)
		if err := tr.write(traceFile(cfg, "fleet")); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fleetLayers derives the per-layer metrics from the traced ticks. Phase
// times are summed over the tenants of one fleet tick (the CPU a tick
// spends in that layer) and reported as the median over ticks.
func fleetLayers(o *outcome, tr *tracer, newS map[string][]float64, probes []*tenantProbe) {
	spans := tr.all()
	for _, t := range fleetTenants {
		o.layer["floor.new_s."+t.id] = median(newS[t.id])
	}
	type perTick struct {
		phase    map[string]float64
		slowest  float64
		advance  float64
		snapshot map[string]float64
	}
	ticks := map[int]*perTick{}
	var order []int
	for _, s := range spans {
		if s.Name == "fleet.advance" {
			ticks[s.ID] = &perTick{phase: map[string]float64{}, snapshot: map[string]float64{}, advance: ms(s.dur())}
			order = append(order, s.ID)
		}
	}
	tickOf := map[int]int{} // tenant.tick span -> fleet.advance span
	for _, s := range spans {
		if pt, ok := ticks[s.Parent]; ok && strings.HasPrefix(s.Name, "tenant.tick.") {
			tickOf[s.ID] = s.Parent
			// The tenant's end is seen by a watcher that may wake after
			// Advance returned; busy time stops at the advance's end.
			adv := spans[s.Parent-1]
			pt.slowest = max(pt.slowest, ms(min(s.End, adv.End)-s.Start))
		}
	}
	for _, s := range spans {
		adv, ok := tickOf[s.Parent]
		if !ok {
			continue
		}
		pt := ticks[adv]
		for _, ph := range []string{"traffic.pretick.", "al.snapshot.", "traffic.tick.", "floor.publish."} {
			if strings.HasPrefix(s.Name, ph) {
				pt.phase[ph] += ms(s.dur())
				if ph == "al.snapshot." {
					pt.snapshot[s.Name[len(ph):]] = ms(s.dur())
				}
			}
		}
	}
	series := map[string][]float64{}
	for _, id := range order {
		pt := ticks[id]
		series["al.snapshot_ms"] = append(series["al.snapshot_ms"], pt.phase["al.snapshot."])
		series["traffic.pretick_ms"] = append(series["traffic.pretick_ms"], pt.phase["traffic.pretick."])
		series["traffic.tick_ms"] = append(series["traffic.tick_ms"], pt.phase["traffic.tick."])
		series["floor.publish_ms"] = append(series["floor.publish_ms"], pt.phase["floor.publish."])
		series["fleet.advance_ms"] = append(series["fleet.advance_ms"], pt.advance)
		series["fleet.wait_ms"] = append(series["fleet.wait_ms"], pt.advance-pt.slowest)
		for t, v := range pt.snapshot {
			series["al.snapshot_ms."+t] = append(series["al.snapshot_ms."+t], v)
		}
	}
	for name, xs := range series {
		o.layer[name] = median(xs)
	}
	drains := durationsMs(spans, "fleet.drain")
	o.layer["fanout.drain_ms"] = medianOr(drains, 0)
	// Encode time summed per drain.
	var enc []float64
	var cur float64
	drainIdx := 0
	for _, s := range spans {
		switch {
		case s.Name == "fleet.drain":
			if drainIdx > 0 {
				enc = append(enc, cur)
			}
			cur = 0
			drainIdx++
		case strings.HasPrefix(s.Name, "wire.encode."):
			cur += ms(s.dur())
		}
	}
	if drainIdx > 0 {
		enc = append(enc, cur)
	}
	o.layer["wire.encode_ms"] = medianOr(enc, 0)
	o.layer["trace.spans"] = float64(len(spans))

	// Counts per fleet tick: each tenant's mean over its traced ticks,
	// summed over the tenants.
	for _, p := range probes {
		if p.ticks == 0 {
			continue
		}
		for m, med := range []string{"plc", "wifi"} {
			o.layer["al.links."+med] += p.links[m] / p.ticks
			o.layer["al.changed."+med] += p.changed[m] / p.ticks
			o.layer["al.unchanged."+med] += p.same[m] / p.ticks
		}
		o.layer["traffic.active_flows"] += p.flows / p.ticks
	}
}
