// Command planed is the metric-plane daemon: it hosts a fleet of
// independent tenant floors (any preset or gen: scenario) on one shared
// virtual clock, advances every floor's channel plane at a configurable
// cadence, and serves the 1905-style link-state plane over HTTP — the
// §7–§8 hybrid vision as a long-lived service rather than a batch sweep.
//
//	GET    /floors                               tenant listing with status
//	POST   /floors?spec=S[&id=I][&wl=W][&policy=P]  add a tenant at the shared clock
//	GET    /floors/{id}/snapshot                 cached full snapshot (versioned)
//	GET    /floors/{id}/stream                   SSE stream of LinkState diffs
//	DELETE /floors/{id}                          close one tenant; others unaffected
//
// With -wl the daemon attaches the traffic plane to every hosted floor:
// a deterministic multi-flow workload (internal/traffic preset or wl:
// spec) drives the channel plane, and each publication carries the live
// flow summary (active flows, completions, fairness, FCT percentiles)
// in its `traffic` field. Per-tenant ?wl=/?policy= override the daemon
// defaults; ?wl=none opts a tenant out.
//
// The stream carries `snapshot` events (full floor state: on subscribe,
// and as resync after subscriber lag) and `diff` events (only links
// whose state moved — a steady-state floor costs a heartbeat-sized
// event per tick). Per-subscriber ring buffers with a drop-oldest
// policy keep one slow reader from stalling the clock or other tenants;
// a reader that lagged is handed a fresh snapshot and continues.
//
// Usage:
//
//	planed -floors paper,flat -cadence 1s -tick 1s
//	planed -floors all -listen :9190
//	planed -floors 'gen:stations=24;boards=2;seed=3,apartment' -tick 100ms
//	planed -floors paper -wl bursty -policy hybrid
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/floor"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9190", "HTTP listen address")
		cadence = flag.Duration("cadence", time.Second, "virtual time per tick")
		tick    = flag.Duration("tick", time.Second, "real time between ticks")
		start   = flag.Duration("start", 11*time.Hour, "virtual start instant")
		buffer  = flag.Int("buffer", 256, "per-subscriber ring capacity (events; oldest dropped on overflow)")
		full    = flag.Bool("full", false, "publish full snapshots every tick instead of diffs")
		drain   = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	)
	ff := cli.RegisterFleetFlags()
	flag.Parse()

	opts, err := ff.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "planed:", err)
		os.Exit(1)
	}

	fleet := floor.NewFleet(*start)
	for _, spec := range cli.SplitScenarios(*ff.Floors) {
		tf, err := trafficFactory(*ff.Workload, *ff.Policy, spec, *ff.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "planed:", err)
			os.Exit(1)
		}
		rt, err := floor.New(floor.Config{
			ID:            spec,
			Scenario:      spec,
			Options:       opts,
			Start:         *start,
			Cadence:       *cadence,
			Buffer:        *buffer,
			FullSnapshots: *full,
			Traffic:       tf,
		})
		if err == nil {
			err = fleet.Add(rt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "planed:", err)
			os.Exit(1)
		}
		log.Printf("planed: hosting floor %q (%d stations, %d links)", rt.ID(), rt.Stations(), rt.Links())
	}

	srv := newServer(fleet, opts, *cadence, *buffer, *full, *ff.Workload, *ff.Policy)
	httpSrv := newHTTPServer(*listen, srv.mux())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The daemon's one wall-clock site: pacing the shared virtual clock
	// against real time (and reporting uptime at drain). Everything the
	// floors compute stays a pure function of virtual time.
	began := time.Now() //reprolint:allow wallclock -- real-time pacing site of the hosting daemon: service uptime accounting, not simulated time
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				fleet.Advance(*cadence)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("planed: serving %d floors on %s (cadence %s per %s real)",
		len(fleet.Floors()), *listen, *cadence, *tick)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "planed:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop ticking, end every tenant (which completes
	// the SSE streams with a final event), then let the HTTP server
	// finish in-flight requests.
	log.Printf("planed: draining after %s uptime", time.Since(began).Round(time.Second)) //reprolint:allow wallclock -- real-time pacing site of the hosting daemon: service uptime accounting, not simulated time
	fleet.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "planed: shutdown:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "planed:", err)
		os.Exit(1)
	}
	log.Print("planed: drained cleanly")
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers: a connection that stalls mid-header is closed instead of
// holding a socket and a goroutine forever. It ends once the headers are
// in, so long-lived SSE streams are unaffected.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer wraps the daemon's handler in a server with fixed limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
