package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how often an untraced run sets its workload up: once for
// the passes it measures and, before that, under other seeds, so that
// setup_s is a median and not one sample.
const setupReps = 5

// minPasses is the fewest passes per client a measured phase times, so
// that a very short --seconds still yields a median.
const minPasses = 3

// report is everything one run found. The last line of standard output
// carries Correct, Attempted, Failed and the metrics' values; the whole
// report, with sample counts and environment, goes to bench/out/.
type report struct {
	Workload       string      `json:"workload"`
	Seed           uint64      `json:"seed"`
	Seconds        float64     `json:"seconds"`
	Traced         bool        `json:"traced"`
	Clients        int         `json:"clients"`
	Loop           string      `json:"loop"`
	Oversubscribed string      `json:"oversubscribed,omitempty"` // set where the box has fewer processors than clients
	Correct        bool        `json:"correct"`
	Attempted      int         `json:"attempted"` // simulation cells
	Failed         int         `json:"failed"`
	FirstFailure   string      `json:"first_failure,omitempty"`
	Digest         string      `json:"digest"` // client 0's folded cells
	ModelValidated bool        `json:"model_validated"`
	Metrics        ledger      `json:"metrics"`
	HostSpeed      float64     `json:"host_speed,omitempty"` // median over the windows: reference time ÷ referenceMs
	Unscaled       ledger      `json:"unscaled,omitempty"`   // the time metrics before scaling by the reference
	Env            environment `json:"env"`
}

func (r *report) absorb(p *phase) {
	r.Attempted += p.cells
	r.Failed += p.failed
	if r.FirstFailure == "" {
		r.FirstFailure = p.firstFail
	}
}

// setUp times one set-up of w under in's seed.
func setUp(ctx context.Context, w workloadDef, in *inputs, tr *tracer) (route, time.Duration, error) {
	if tr != nil {
		tr.route = w.name + ".setup"
		defer func() { tr.route = w.name }()
	}
	start := time.Now()
	r, err := w.setup(ctx, in, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return r, time.Since(start), nil
}

// auxSeed derives the seeds of the extra set-ups. They only have to
// differ from the run's seed and from each other.
func auxSeed(seed uint64, rep int) uint64 { return seed*1_000_003 + uint64(rep)*7919 + 1 }

// runUntraced measures w's end-to-end metrics: tracing off, every
// injection point left at its default.
func runUntraced(ctx context.Context, w workloadDef, in *inputs, dur time.Duration, rep *report) error {
	ref := newReference(in.workers)
	defer ref.stop()
	var setups, rawSetups []float64
	var r route
	for i := setupReps - 1; i >= 0; i-- { // the run's own seed last: its route is the one measured
		x := in
		if i > 0 {
			x = in.withSeed(auxSeed(in.seed, i))
		}
		before := ref.sample()
		var took time.Duration
		var err error
		if r, took, err = setUp(ctx, w, x, nil); err != nil {
			return err
		}
		speed := (before + ref.sample()) / 2 / referenceMs
		setups = append(setups, took.Seconds()/speed)
		rawSetups = append(rawSetups, took.Seconds())
		if i > 0 {
			if err := r.close(); err != nil {
				return err
			}
		}
	}

	// Start the measured phase from the live heap alone, as testing.B does:
	// how much set-up garbage is still around must not decide the phase's
	// collection schedule and, with it, the resident-set peak.
	runtime.GC()
	p := measure(ctx, w, in, r, limit{passes: minPasses, dur: dur}, ref)
	if err := r.close(); err != nil {
		return err
	}
	rep.Clients = r.clients()
	rep.Digest = p.digests[0]
	rep.absorb(p)
	if len(p.windows) == 0 {
		return fmt.Errorf("%s: no pass succeeded: %s", w.name, p.firstFail)
	}

	// One value per window, scaled to the reference speed (see hostref.go);
	// Unscaled keeps the same medians as the clock read them.
	var rate, pass, cpu, speed, rawRate, rawPass, rawCPU []float64
	for _, w := range p.windows {
		s := w.speed()
		speed = append(speed, s)
		rawRate = append(rawRate, float64(w.cells)/w.wall.Seconds())
		// Client 0 runs the 42-cell sweep on every workload; a second client
		// with a smaller spec would make the pooled median a mixture.
		rawPass = append(rawPass, ms(w.wall0)/float64(w.passes0))
		rawCPU = append(rawCPU, ms(w.cpu)/float64(w.cells))
		rate = append(rate, rawRate[len(rawRate)-1]*s)
		pass = append(pass, rawPass[len(rawPass)-1]/s)
		cpu = append(cpu, rawCPU[len(rawCPU)-1]/s)
	}
	n := len(p.windows)
	l := rep.Metrics
	l.set("cells_per_s", "cells/s", median(rate), n)
	l.set("pass_ms_p50", "ms", median(pass), n)
	l.set("cpu_ms_per_cell", "ms", median(cpu), n)
	l.set("allocs_per_cell", "count", float64(p.mallocs)/float64(p.cells-p.failed), len(p.allWallsMs()))
	l.set("peak_rss_mb", "MiB", peakRSSMiB(), 1)
	l.set("setup_s", "s", median(setups), len(setups))

	rep.HostSpeed = median(speed)
	rep.Unscaled = ledger{}
	rep.Unscaled.set("cells_per_s", "cells/s", median(rawRate), n)
	rep.Unscaled.set("pass_ms_p50", "ms", median(rawPass), n)
	rep.Unscaled.set("cpu_ms_per_cell", "ms", median(rawCPU), n)
	rep.Unscaled.set("setup_s", "s", median(rawSetups), len(rawSetups))
	return nil
}

// runTraced fills the per-layer ledger. Every traced run measures every
// layer, so a ledger row means the same whichever workload was asked for:
// it runs each route with the span recorder on — the named workload for
// half of --seconds, first untraced and then traced, the others for their
// few ledger passes — and then the probes that time single layers.
func runTraced(ctx context.Context, w workloadDef, in *inputs, dur time.Duration, rep *report, outDir string) error {
	tr := newTracer()
	l := rep.Metrics
	var untraced, traced *phase
	var fab *fabricRoute
	var retries int64

	for _, x := range workloads {
		lim := limit{passes: x.ledgerPasses}
		if x.name == w.name {
			lim = limit{passes: minPasses, dur: dur / 4}
			r, _, err := setUp(ctx, x, in, nil)
			if err != nil {
				return err
			}
			untraced = measure(ctx, x, in, r, lim, nil)
			if err := r.close(); err != nil {
				return err
			}
			rep.absorb(untraced)
		}
		r, _, err := setUp(ctx, x, in, tr)
		if err != nil {
			return err
		}
		p := measure(ctx, x, in, r, lim, nil)
		switch r := r.(type) {
		case *fabricRoute:
			fab = r
		case *servedColdRoute:
			retries += r.retried.Load()
		case *servedWarmRoute:
			retries += r.retries()
			if err := r.computeBatches(ctx, probeReps); err != nil {
				return errors.Join(err, r.close())
			}
		}
		if err := r.close(); err != nil {
			return err
		}
		if len(p.wallsMs[0]) == 0 {
			return fmt.Errorf("%s: no traced pass succeeded: %s", x.name, p.firstFail)
		}
		rep.absorb(p)
		if x.name == w.name {
			traced = p
			rep.Clients = r.clients()
			rep.Digest = p.digests[0]
		}
	}
	l.set("client.retries", "count", float64(retries), 1)

	if err := engineProbes(l, in); err != nil {
		return err
	}
	if err := pipelineProbes(l, in); err != nil {
		return err
	}
	t, err := simProbes(ctx, l, in)
	if err != nil {
		return err
	}
	rep.Attempted += t.cells
	rep.Failed += t.failed

	fromSpans(l, tr, fab)
	l.set("bench.trace_overhead_ratio", "ratio", traced.cellsPerS()/untraced.cellsPerS(), len(traced.allWallsMs()))
	hit := 0.0
	if traced.cached > 0 {
		hit = float64(traced.served) / float64(traced.cached)
	}
	l.set("cache.hit_ratio", "ratio", hit, len(traced.allWallsMs()))
	passes := filter(tr.spans, w.name, "pass")
	var self, wall time.Duration
	selfs := selfTimes(tr.spans)
	for _, s := range passes {
		self += selfs[s.ID-1]
		wall += s.dur()
	}
	l.set("bench.pass_self_share", "ratio", float64(self)/float64(wall), len(passes))

	return writeChrome(filepath.Join(outDir, fmt.Sprintf("%s.seed%d.trace.json", w.name, in.seed)), tr.spans)
}

// fromSpans derives the ledger rows that are durations and counts taken
// at span boundaries. Each row names the route whose spans it reads.
func fromSpans(l ledger, tr *tracer, fab *fabricRoute) {
	const (
		inproc       = "fig12_inproc"
		servedCold   = "fig12_served_cold"
		campaignWarm = "fig12_campaign_warm"
		servedWarm   = "fig12_served_warm"
		fabric2      = "fig12_fabric2"
		erosion      = "erosion_inproc"
	)
	dur := func(route, name string) []float64 { return durationsMs(filter(tr.spans, route, name)) }
	med := func(name, route, span string) float64 {
		d := dur(route, span)
		l.set(name, "ms", median(d), len(d))
		return median(d)
	}

	// One simulated cell, as the in-process sweep runs it.
	cells := dur(inproc, "sim.cell")
	l.set("sim.cell_ms_p50", "ms", median(cells), len(cells))
	l.set("sim.cell_ms_max", "ms", percentile(cells, 100), len(cells))
	for _, p := range phaseSpans {
		l.set("sim.phase."+p.name[len("sim."):]+"_share", "ratio", sum(dur(inproc, p.name))/sum(cells), len(cells))
	}
	inprocPass := dur(inproc, "pass")
	if tot := tr.totals[inproc]; tot != nil {
		c := tot.counters
		l.set("sim.mcycles_per_s", "Mcycles/s", float64(tot.cycles)/1e6/(sum(inprocPass)/1000), len(inprocPass))
		l.set("sim.skip_ratio", "ratio", float64(c.SkippedCycles)/float64(c.SkippedCycles+c.Ticks), len(cells))
		l.set("memctrl.frfcfs_entries_per_scan", "count", float64(c.ScanEntries)/float64(c.ScanPasses), len(cells))
	}

	// The same 42 cells through each route, against the route below it.
	cold := med("campaign.cold_pass_ms", campaignWarm+".setup", "campaign.run")
	med("campaign.warm_pass_ms", campaignWarm, "campaign.run")
	l.set("campaign.overhead_ratio", "ratio", cold/median(inprocPass), 1)
	l.set("server.overhead_ratio", "ratio", median(dur(servedCold, "pass"))/cold, 1)
	fabricRun := med("fabric.run_ms", fabric2, "fabric.run")
	l.set("fabric.overhead_ratio", "ratio", fabricRun/median(inprocPass), 1)

	med("server.submit_ms", servedWarm, "client.submit")
	med("server.wait_ms", servedWarm, "client.wait")
	med("server.result_ms", servedWarm, "client.result")
	med("server.compute_batch_ms", servedWarm, "client.compute")
	warm := dur(servedWarm, "pass")
	tail := median(warm)
	if p, ok := topPercentile(len(warm)); ok {
		tail = percentile(warm, min(p, 99))
	}
	l.set("server.pass_ms_p99", "ms", tail, len(warm))

	var static, drifting []float64
	for _, s := range filter(tr.spans, erosion, "sim.cell") {
		if s.Temporal {
			drifting = append(drifting, ms(s.dur()))
		} else {
			static = append(static, ms(s.dur()))
		}
	}
	l.set("temporal.overhead_ratio", "ratio", mean(drifting)/mean(static), len(drifting))

	var d struct{ batches, redispatched, expired, local float64 }
	var imbalance []float64
	for _, p := range fab.stats {
		d.batches += float64(p.dispatch.Batches)
		d.redispatched += float64(p.dispatch.Redispatched)
		d.expired += float64(p.dispatch.ExpiredLeases)
		d.local += float64(p.dispatch.LocalCells)
		lo, hi := p.perWorker[0], p.perWorker[0]
		for _, n := range p.perWorker {
			lo, hi = min(lo, n), max(hi, n)
		}
		imbalance = append(imbalance, float64(hi)/float64(max(lo, 1)))
	}
	n := len(fab.stats)
	l.set("fabric.batches", "count", d.batches/float64(n), n)
	l.set("fabric.redispatched", "count", d.redispatched, n)
	l.set("fabric.expired_leases", "count", d.expired, n)
	l.set("fabric.local_cells", "count", d.local, n)
	l.set("fabric.worker_imbalance", "ratio", median(imbalance), n)
}
