package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/floor"
)

// The planed workload runs the real daemon as a bare metric plane (no
// traffic), starting with paper and admitting flat over POST /floors.
// Its -tick is far below one fleet tick, so it ticks back to back: a
// closed loop whose delivered rate is its capacity. Two SSE subscribers
// on paper are the only connections open while a fixed range of ticks
// is delivered to both. In that window the client only frames events
// and tracks seq numbers; JSON is decoded for the bootstrap and the
// final table check only, so the client's CPU does not cap the rate.
//
// The window is a fixed range of seq numbers, so every daemon run
// delivers the same ticks of paper at the same virtual times.
const (
	planedSubs    = 2
	planedStart   = 2000 // seq at which the window opens; earlier ticks are warm-up
	planedWindow  = 6000 // ticks delivered to each subscriber in the window
	planedTail    = 20   // events decoded after the window for the table check
	planedTick    = "100us"
	planedTimeout = 90 * time.Second
)

// planedSample is what one daemon run measured.
type planedSample struct {
	setup, work                   time.Duration
	daemonCPU, clientCPU          time.Duration
	admit                         time.Duration
	bootstrap                     []time.Duration
	gapsMs                        []float64
	maxRSSK                       int64
	events, eventBytes, dataBytes int
	resyncs                       int
}

// subscriber reads one SSE stream on its own goroutine. The primary
// subscriber also decodes its bootstrap and tail.
type subscriber struct {
	idx      int
	primary  bool
	body     io.ReadCloser
	opened   time.Time
	boot     chan uint64   // bootstrap seq, once
	started  chan struct{} // closed at the window's first seq
	finished chan struct{} // closed at the window's last seq
	tailDone chan struct{} // closed once the tail events were decoded
	done     chan struct{} // closed when the stream ended
	err      error         // read after done

	// Written by the reading goroutine; read after the channel that
	// marks them complete.
	bootAt                        time.Time
	table                         map[floor.Key]floor.WireState
	gapsMs                        []float64
	events, eventBytes, dataBytes int
	tr                            seqTracker
	ended                         bool
}

func (s *subscriber) run() {
	defer close(s.done)
	defer s.body.Close()
	s.err = s.read()
}

func (s *subscriber) read() error {
	r := newSSEReader(s.body)
	ev, err := r.next()
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	s.bootAt = time.Now()
	if err := s.frame(ev); err != nil {
		return err
	}
	if s.primary {
		var u floor.WireUpdate
		if err := json.Unmarshal(ev.Data, &u); err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		s.table = make(map[floor.Key]floor.WireState, len(u.States))
		s.apply(u)
	}
	s.boot <- ev.ID
	const end = planedStart + planedWindow
	var (
		inWindow, over bool
		last           time.Time
	)
	tail := 0
	if !s.primary {
		close(s.tailDone)
		tail = planedTail
	}
	for {
		ev, err := r.next()
		if err != nil {
			if errors.Is(err, io.EOF) && s.ended {
				return nil
			}
			return err
		}
		now := time.Now()
		if ev.Kind == evEnd {
			s.ended = true
			continue
		}
		if err := s.frame(ev); err != nil {
			return err
		}
		switch {
		case !inWindow && !over && ev.ID >= planedStart:
			inWindow = true
			close(s.started)
		case inWindow:
			s.gapsMs = append(s.gapsMs, ms(now.Sub(last)))
			s.events++
			s.eventBytes += ev.Bytes
			s.dataBytes += len(ev.Data)
			if ev.ID >= end {
				inWindow, over = false, true
				close(s.finished)
			}
		case over && tail < planedTail:
			var u floor.WireUpdate
			if err := json.Unmarshal(ev.Data, &u); err != nil {
				return fmt.Errorf("event %d: %w", ev.ID, err)
			}
			if u.Seq != ev.ID || u.Floor != "paper" {
				return fmt.Errorf("event %d carries floor %q seq %d", ev.ID, u.Floor, u.Seq)
			}
			s.apply(u)
			if tail++; tail == planedTail {
				close(s.tailDone)
			}
		}
		last = now
	}
}

// frame checks one event's seq and head.
func (s *subscriber) frame(ev sseEvent) error {
	if !ev.HasID {
		return fmt.Errorf("%v event without id", ev.Kind)
	}
	if err := s.tr.observe(ev.Kind, ev.ID); err != nil {
		return err
	}
	return checkHead(ev.Data, "paper", ev.ID)
}

// apply folds a decoded event into the client table, as floor.Apply
// does for in-process subscribers.
func (s *subscriber) apply(u floor.WireUpdate) {
	if u.Full {
		clear(s.table)
	}
	for _, st := range u.States {
		m := core.PLC
		if st.Medium != core.PLC.String() {
			m = core.WiFi
		}
		s.table[floor.Key{Src: st.Src, Dst: st.Dst, Medium: m}] = st
	}
}

// freeAddr reserves a loopback port for the daemon.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// lockedBuffer collects the daemon's log while it runs.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// floorRow is the part of GET /floors the checks read.
type floorRow struct {
	ID     string `json:"id"`
	Links  int    `json:"links"`
	Status string `json:"status"`
}

// errNotReady reports a daemon that exited before serving, such as on
// losing its reserved port to another process.
var errNotReady = errors.New("daemon exited before serving")

func planedRep(cfg runConfig, tr *tracer, o *outcome) (*planedSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), planedTimeout)
	defer cancel()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	var logs lockedBuffer
	cmd := exec.CommandContext(ctx, cfg.planed,
		"-floors", "paper", "-seed", strconv.FormatInt(cfg.seed, 10), "-decimate", "16",
		"-cadence", "1s", "-tick", planedTick, "-buffer", "256", "-listen", addr)
	cmd.Stdout, cmd.Stderr = &logs, &logs
	cmd.WaitDelay = 5 * time.Second
	ctl := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: 30 * time.Second}
	stream := &http.Transport{Proxy: nil, DisableCompression: true}
	defer stream.CloseIdleConnections()

	sm := &planedSample{}
	root := tr.open("planed.rep", 0, time.Now())
	defer func() { tr.close(root, time.Now()) }()
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	var werr error
	go func() {
		werr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	}()
	fail := func(err error) (*planedSample, error) {
		return nil, fmt.Errorf("%w; daemon log:\n%s", err, logs.String())
	}

	// Ready once the listing answers.
	for {
		resp, err := ctl.Get(base + "/floors")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("%w: %v; daemon log:\n%s", errNotReady, werr, logs.String())
		case <-ctx.Done():
			return fail(fmt.Errorf("daemon not ready: %v", err))
		case <-time.After(2 * time.Millisecond):
		}
	}
	tr.add("planed.start", root, begin, time.Now())

	aBegin := time.Now()
	resp, err := ctl.Post(base+"/floors?spec=flat", "", nil)
	if err != nil {
		return fail(err)
	}
	resp.Body.Close()
	sm.admit = time.Since(aBegin)
	tr.add("planed.admit", root, aBegin, aBegin.Add(sm.admit))
	if resp.StatusCode != http.StatusCreated {
		return fail(fmt.Errorf("POST /floors?spec=flat: %s", resp.Status))
	}

	var subs []*subscriber
	// Every exit path stops the readers and waits for them.
	defer func() {
		cancel()
		for _, s := range subs {
			s.body.Close()
			<-s.done
		}
	}()
	for i := 0; i < planedSubs; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/floors/paper/stream", nil)
		if err != nil {
			return fail(err)
		}
		opened := time.Now()
		resp, err := stream.RoundTrip(req)
		if err != nil {
			return fail(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fail(fmt.Errorf("stream: %s", resp.Status))
		}
		s := &subscriber{
			idx: i, primary: i == 0, body: resp.Body, opened: opened,
			boot: make(chan uint64, 1), started: make(chan struct{}), finished: make(chan struct{}),
			tailDone: make(chan struct{}), done: make(chan struct{}),
		}
		subs = append(subs, s)
		go s.run()
	}

	wait := func(what string, ch func(*subscriber) <-chan struct{}) error {
		for _, s := range subs {
			select {
			case <-ch(s):
			case <-s.done:
				return fmt.Errorf("subscriber %d ended before %s: %v", s.idx, what, s.err)
			case <-ctx.Done():
				return fmt.Errorf("timed out waiting for %s", what)
			}
		}
		return nil
	}
	for _, s := range subs {
		select {
		case seq := <-s.boot:
			if seq >= planedStart {
				return fail(fmt.Errorf("subscriber %d bootstrapped at seq %d, past the window's start %d", s.idx, seq, planedStart))
			}
			sm.bootstrap = append(sm.bootstrap, s.bootAt.Sub(s.opened))
			tr.add("sse.bootstrap", root, s.opened, s.bootAt)
		case <-s.done:
			return fail(fmt.Errorf("subscriber %d: %v", s.idx, s.err))
		case <-ctx.Done():
			return fail(errors.New("timed out waiting for bootstrap"))
		}
	}
	wBegin := time.Now()
	if err := wait("the window", func(s *subscriber) <-chan struct{} { return s.started }); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	tr.add("planed.warmup", root, wBegin, t0)
	cpu0, err := procCPU(cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	self0, err := selfUsage()
	if err != nil {
		return nil, err
	}
	sm.setup = t0.Sub(begin)
	if err := wait("the window's end", func(s *subscriber) <-chan struct{} { return s.finished }); err != nil {
		return fail(err)
	}
	t1 := time.Now()
	cpu1, err := procCPU(cmd.Process.Pid)
	if err != nil {
		return fail(err)
	}
	self1, err := selfUsage()
	if err != nil {
		return nil, err
	}
	tr.add("planed.window", root, t0, t1)
	sm.work, sm.daemonCPU, sm.clientCPU = t1.Sub(t0), cpu1-cpu0, self1.CPU-self0.CPU

	// The client table, bootstrap plus the decoded tail, must hold every
	// link the daemon lists for the floor.
	if err := wait("the tail", func(s *subscriber) <-chan struct{} { return s.tailDone }); err != nil {
		return fail(err)
	}
	var rows []floorRow
	resp, err = ctl.Get(base + "/floors")
	if err != nil {
		return fail(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	links := map[string]int{}
	for _, r := range rows {
		if r.Status != "running" {
			o.problem("floor %s is %s", r.ID, r.Status)
		}
		links[r.ID] = r.Links
	}
	if _, ok := links["flat"]; !ok || len(rows) != 2 {
		o.problem("GET /floors lists %d floors, want paper and flat", len(rows))
	}
	// The primary reader is past its tail, so its table is settled.
	if got := len(subs[0].table); got != links["paper"] || got == 0 {
		o.problem("client table holds %d links, GET /floors reports %d", got, links["paper"])
	}

	dBegin := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fail(err)
	}
	select {
	case <-exited:
	case <-ctx.Done():
		return fail(errors.New("daemon did not exit on SIGTERM"))
	}
	tr.add("planed.drain", root, dBegin, time.Now())
	for _, s := range subs {
		<-s.done
		if s.err != nil {
			o.failed++
			o.problem("subscriber %d: %v", s.idx, s.err)
		} else if !s.ended {
			o.problem("subscriber %d: stream closed without an end event", s.idx)
		}
		sm.gapsMs = append(sm.gapsMs, s.gapsMs...)
		sm.events += s.events
		sm.eventBytes += s.eventBytes
		sm.dataBytes += s.dataBytes
		sm.resyncs += s.tr.resyncs
	}
	if werr != nil {
		o.failed++
		o.problem("daemon exit on SIGTERM: %v; log:\n%s", werr, logs.String())
	} else if !strings.Contains(logs.String(), "drained cleanly") {
		o.problem("daemon did not log a clean drain")
	}
	ru, err := exitUsage(cmd.ProcessState)
	if err != nil {
		return nil, err
	}
	sm.maxRSSK = ru.MaxRSSK
	return sm, nil
}

func runPlaned(cfg runConfig) (*outcome, error) {
	if _, err := os.Stat(cfg.planed); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	o := newOutcome()
	tr := newTracer(cfg.trace)
	var (
		setups, windows, cpus, rss            []float64
		admit, boot, gaps, clientCPU          []float64
		untracedW, tracedW                    []float64
		events, eventBytes, dataBytes, resync int
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
		sm, err := planedRep(cfg, rtr, o)
		for try := 1; errors.Is(err, errNotReady) && try < 3; try++ {
			sm, err = planedRep(cfg, rtr, o)
		}
		if err != nil {
			return 0, err
		}
		o.attempted += planedSubs * planedWindow
		setups = append(setups, sm.setup.Seconds())
		windows = append(windows, sm.work.Seconds())
		cpus = append(cpus, sm.daemonCPU.Seconds())
		rss = append(rss, float64(sm.maxRSSK)/1024)
		admit = append(admit, ms(sm.admit))
		for _, b := range sm.bootstrap {
			boot = append(boot, ms(b))
		}
		gaps = append(gaps, sm.gapsMs...)
		clientCPU = append(clientCPU, sm.clientCPU.Seconds())
		events += sm.events
		eventBytes += sm.eventBytes
		dataBytes += sm.dataBytes
		resync += sm.resyncs
		if traced {
			tracedW = append(tracedW, sm.work.Seconds())
		} else {
			untracedW = append(untracedW, sm.work.Seconds())
		}
		return sm.setup + sm.work, nil
	})
	if err != nil {
		return nil, err
	}
	o.note("%d daemon runs; windows %s s; %d resyncs", len(windows), fmtList(windows), resync)
	o.note("op = one tick delivered to one of %d subscribers", planedSubs)
	o.e2e["setup_s"] = median(setups)
	o.e2e["work_s"] = median(windows)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["peak_rss_mb"] = median(rss)
	o.e2e["ops_per_s"] = planedSubs * planedWindow / median(windows)

	if cfg.trace {
		spans := tr.all()
		gapP50, err := percentile(gaps, 0.5)
		if err != nil {
			return nil, err
		}
		o.layer["planed.admit_ms"] = median(admit)
		o.layer["sse.bootstrap_ms"] = median(boot)
		o.layer["sse.gap_p50_ms"] = gapP50
		o.layer["sse.bytes_per_event"] = float64(eventBytes) / float64(max(events, 1))
		o.layer["wire.bytes_per_pub"] = float64(dataBytes) / float64(max(events, 1))
		o.layer["sse.resyncs"] = float64(resync)
		o.layer["client.cpu_s"] = median(clientCPU)
		o.layer["trace.overhead_pct"] = overheadPct(untracedW, tracedW)
		o.layer["trace.spans"] = float64(len(spans))
		if err := tr.write(traceFile(cfg, "planed")); err != nil {
			return nil, err
		}
	}
	return o, nil
}
