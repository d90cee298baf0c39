// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation against the real program — the campaign
// engine, a traffic-loaded floor fleet, or the planed daemon over HTTP
// and SSE — checks the outputs, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench -workload campaign|fleet|planed -seed N -seconds S -trace 0|1 [-planed PATH]
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// records spans around every call into a layer, reports the per-layer
// metrics (zero for a layer the workload never reaches or the benchmark
// cannot observe) and writes the spans under .bench_build/trace/.
// perfbench/run.sh builds this program and the daemon, then runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	planed  string // daemon binary (planed workload)
	out     string // directory for trace files
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	problems          []string           // failed output checks
	e2e               map[string]float64 // end-to-end metrics, untraced runs
	layer             map[string]float64 // per-layer metrics, traced runs
	notes             []string           // human-readable lines (digests, sample counts)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the per-layer metrics every traced run reports.
func perLayer() []metricDef {
	var out []metricDef
	for _, id := range campaignJobs {
		out = append(out, metricDef{"campaign.job_s." + id, "s"})
	}
	out = append(out, metricDef{"campaign.engine_self_ms", "ms"})
	for _, t := range fleetTenants {
		out = append(out, metricDef{"floor.new_s." + t.id, "s"})
	}
	out = append(out, metricDef{"planed.admit_ms", "ms"}, metricDef{"al.snapshot_ms", "ms"})
	for _, t := range fleetTenants {
		out = append(out, metricDef{"al.snapshot_ms." + t.id, "ms"})
	}
	for _, m := range []string{"links", "changed", "unchanged"} {
		out = append(out, metricDef{"al." + m + ".plc", "count"}, metricDef{"al." + m + ".wifi", "count"})
	}
	return append(out,
		metricDef{"traffic.pretick_ms", "ms"},
		metricDef{"traffic.tick_ms", "ms"},
		metricDef{"traffic.active_flows", "count"},
		metricDef{"floor.publish_ms", "ms"},
		metricDef{"wire.encode_ms", "ms"},
		metricDef{"fanout.drain_ms", "ms"},
		metricDef{"wire.bytes_per_pub", "bytes"},
		metricDef{"fanout.dropped", "count"},
		metricDef{"fleet.advance_ms", "ms"},
		metricDef{"fleet.advance_p90_ms", "ms"},
		metricDef{"fleet.wait_ms", "ms"},
		metricDef{"sse.bootstrap_ms", "ms"},
		metricDef{"sse.gap_p50_ms", "ms"},
		metricDef{"sse.bytes_per_event", "bytes"},
		metricDef{"sse.resyncs", "count"},
		metricDef{"client.cpu_s", "s"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.spans", "count"},
	)
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"campaign": runCampaign,
	"fleet":    runFleet,
	"planed":   runPlaned,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: campaign, fleet or planed")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 20, "measurement time per run, in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		planed   = flag.String("planed", ".bench_build/bin/planed", "planed binary")
		out      = flag.String("out", ".bench_build/trace", "directory for trace files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload campaign|fleet|planed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		planed:  *planed,
		out:     *out,
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, cfg, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if len(o.problems) > 0 || o.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the notes, every metric by name with its unit, the
// operation counts and the check verdicts, then the result line.
func report(w io.Writer, workload string, cfg runConfig, o *outcome) error {
	defs, vals := endToEnd, o.e2e
	if cfg.trace {
		defs, vals = perLayer(), o.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = 0 // a layer this workload never reaches
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	for _, n := range o.notes {
		fmt.Fprintln(w, "  "+n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(w, "  operations attempted %d failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, o.attempted, o.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// traceFile names a traced run's span file.
func traceFile(cfg runConfig, workload string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed))
}

// reps runs body until the measured time reaches cfg.seconds, at least
// min times. body reports the time it measured.
func reps(cfg runConfig, min int, body func(rep int) (time.Duration, error)) error {
	var spent time.Duration
	for rep := 0; rep < min || spent < cfg.seconds; rep++ {
		d, err := body(rep)
		if err != nil {
			return err
		}
		spent += d
	}
	return nil
}

// fmtList renders values for a note.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// overheadPct compares the traced repetitions' median with the
// untraced one's, in percent of the untraced.
func overheadPct(untraced, traced []float64) float64 {
	u, t := median(untraced), median(traced)
	if len(untraced) == 0 || len(traced) == 0 || u <= 0 {
		return 0
	}
	return (t - u) / u * 100
}
