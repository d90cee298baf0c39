package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// The campaign workload runs the whole experiment registry on the paper
// floor at the benchmark scale, one job at a time: with two workers
// both the longest-first makespan and the testbed memo's hits depend on
// timing (two workers needing one floor at once both build it).
const (
	campaignScale    = 0.05
	campaignDecimate = 16
	campaignSetups   = 7 // set-up samples per run, reported as their median
	campaignBatch    = 8 // cold set-ups per sample: one takes a few ms
)

// campaignJobs are the registry's experiments, one per-layer metric each.
var campaignJobs = []string{
	"fig03", "fig04", "fig06", "fig07", "fig09", "fig10", "fig11",
	"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
	"fig_flows_fairness", "fig_flows_churn",
	"table1", "table2", "table3",
}

// goldenJobs is the experiment set the parity golden was captured from,
// in its order; goldenPath is that golden, read-only.
var goldenJobs = append(append([]string(nil), campaignJobs[:20]...), "table1", "table2", "table3")

const goldenPath = "internal/campaign/testdata/presweep_golden.json"

func campaignConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Scale: campaignScale, Decimate: campaignDecimate, Scenario: scenario.DefaultName}
}

// campaignSetup is the cold set-up every campaign pays before its first
// measurement: validating the plan and assembling its floor.
func campaignSetup(cfg experiments.Config) (time.Duration, error) {
	begin := time.Now()
	if _, err := campaign.NewPlan(campaign.PlanConfig(cfg)).Jobs(); err != nil {
		return 0, err
	}
	bp, err := scenario.Parse(cfg.Scenario)
	if err != nil {
		return 0, err
	}
	opts := testbed.DefaultOptions()
	opts.Decimate, opts.Seed, opts.Scenario = cfg.Decimate, cfg.Seed, cfg.Scenario
	tb, err := testbed.Build(bp, opts)
	if err != nil {
		return 0, err
	}
	defer tb.Close()
	if _, err := tb.Topology(); err != nil {
		return 0, err
	}
	return time.Since(begin), nil
}

// renderExports renders outcomes the way the parity golden was captured:
// scenario, experiments.Export and claim, one indented JSON array. Only
// the listed ids are rendered, in the given order.
func renderExports(outs []campaign.JobOutcome, ids []string) ([]byte, error) {
	type sweepExport struct {
		Scenario string `json:"scenario"`
		experiments.Export
		Claim string `json:"claim,omitempty"`
	}
	byID := make(map[string]campaign.JobOutcome, len(outs))
	for _, o := range outs {
		byID[o.Experiment.ID] = o
	}
	exports := make([]sweepExport, 0, len(ids))
	for _, id := range ids {
		o, ok := byID[id]
		if !ok || o.Result == nil {
			return nil, fmt.Errorf("no result for %s", id)
		}
		se := sweepExport{Scenario: o.Scenario, Export: experiments.NewExport(o.Result)}
		if o.Claim != nil {
			se.Claim = o.Claim.Error()
		}
		exports = append(exports, se)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exports); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runCampaign(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	ccfg := campaignConfig(cfg.seed)
	tr := newTracer(cfg.trace)

	var setups []float64
	for i := 0; i < campaignSetups; i++ {
		// Each sample starts from a collected heap, so whether a GC
		// cycle lands inside it does not depend on the one before.
		runtime.GC()
		var total time.Duration
		for j := 0; j < campaignBatch; j++ {
			d, err := campaignSetup(ccfg)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			total += d
		}
		setups = append(setups, total.Seconds()/campaignBatch)
	}

	ids := make([]string, 0, len(campaignJobs))
	for _, m := range experiments.List() {
		ids = append(ids, m.ID)
	}
	var (
		makespans, cpus, untracedW, tracedW []float64
		digest                              string
	)
	// A traced run alternates untraced and traced repetitions: the
	// untraced ones are the baseline the traced ones' digests are checked
	// against and their times compared with.
	minReps := 1
	if cfg.trace {
		minReps = 2
	}
	err := reps(cfg, minReps, func(rep int) (time.Duration, error) {
		traced := cfg.trace && rep%2 == 1
		opts := campaign.Options{Workers: 1}
		root := 0
		if traced {
			root = tr.open("campaign.rep", 0, time.Now())
			span := 0
			opts.Observer = func(ev campaign.Event) {
				if ev.Kind == campaign.EventStarted {
					span = tr.open("campaign.job."+ev.Job.Experiment.ID, root, time.Now())
				} else {
					tr.close(span, time.Now())
				}
			}
		}
		before, err := selfUsage()
		if err != nil {
			return 0, err
		}
		begin := time.Now()
		outs, runErr := campaign.Collect(context.Background(), campaign.NewPlan(campaign.PlanConfig(ccfg)), opts)
		makespan := time.Since(begin)
		tr.close(root, time.Now())
		after, err := selfUsage()
		if err != nil {
			return 0, err
		}
		if runErr != nil {
			o.problem("campaign run: %v", runErr)
		}
		for _, out := range outs {
			o.attempted++
			switch {
			case out.Err != nil:
				o.failed++
				o.problem("%s: %v", out.Job, out.Err)
			case out.Claim != nil:
				o.failed++
				o.problem("%s: claim failed: %v", out.Job, out.Claim)
			}
		}
		if len(outs) != len(ids) {
			return 0, fmt.Errorf("campaign ran %d jobs, registry has %d", len(outs), len(ids))
		}
		rendered, err := renderExports(outs, ids)
		if err != nil {
			o.problem("render: %v", err)
		}
		d := fmt.Sprintf("%x", sha256.Sum256(rendered))
		switch {
		case digest == "":
			digest = d
		case d != digest:
			o.problem("repetition %d output digest %s differs from %s", rep, d[:16], digest[:16])
		}
		if cfg.seed == 1 && rep == 0 {
			checkGolden(o, outs)
		}
		makespans = append(makespans, makespan.Seconds())
		cpus = append(cpus, (after.CPU - before.CPU).Seconds())
		if traced {
			tracedW = append(tracedW, makespan.Seconds())
		} else {
			untracedW = append(untracedW, makespan.Seconds())
		}
		return makespan, nil
	})
	if err != nil {
		return nil, err
	}
	ru, err := selfUsage()
	if err != nil {
		return nil, err
	}
	o.note("output digest %s over %d repetitions of %d jobs", digest, len(makespans), len(ids))
	o.note("set-ups %s s (each the mean of %d)", fmtList(setups), campaignBatch)
	o.note("makespans %s s; op = one job", fmtList(makespans))
	o.e2e["setup_s"] = median(setups)
	o.e2e["work_s"] = median(makespans)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["peak_rss_mb"] = float64(ru.MaxRSSK) / 1024
	o.e2e["ops_per_s"] = float64(len(ids)) / median(makespans)

	if cfg.trace {
		spans := tr.all()
		for _, id := range campaignJobs {
			var s []float64
			for _, v := range durationsMs(spans, "campaign.job."+id) {
				s = append(s, v/1000)
			}
			o.layer["campaign.job_s."+id] = medianOr(s, 0)
		}
		self := selfTimes(spans)
		var engine []float64
		for i, s := range spans {
			if s.Name == "campaign.rep" {
				engine = append(engine, ms(self[i]))
			}
		}
		o.layer["campaign.engine_self_ms"] = medianOr(engine, 0)
		o.layer["trace.overhead_pct"] = overheadPct(untracedW, tracedW)
		o.layer["trace.spans"] = float64(len(spans))
		if err := tr.write(traceFile(cfg, "campaign")); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkGolden compares the pinned experiment subset of a seed-1 run
// with the parity golden, byte for byte.
func checkGolden(o *outcome, outs []campaign.JobOutcome) {
	golden, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		o.problem("golden: %v", err)
		return
	}
	got, err := renderExports(outs, goldenJobs)
	if err != nil {
		o.problem("golden: %v", err)
		return
	}
	if !bytes.Equal(got, golden) {
		i := 0
		for i < len(got) && i < len(golden) && got[i] == golden[i] {
			i++
		}
		o.problem("pinned subset diverges from %s at byte %d", goldenPath, i)
		return
	}
	o.note("pinned subset matches %s (%d bytes)", goldenPath, len(golden))
}
