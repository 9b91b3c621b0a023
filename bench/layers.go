package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"svard/internal/cache"
	"svard/internal/charz"
	"svard/internal/core"
	"svard/internal/dram"
	"svard/internal/exec"
	"svard/internal/mem"
	"svard/internal/memctrl"
	"svard/internal/mitigation"
	"svard/internal/mitigation/aqua"
	"svard/internal/mitigation/blockhammer"
	"svard/internal/mitigation/hydra"
	"svard/internal/mitigation/para"
	"svard/internal/mitigation/rrs"
	"svard/internal/obs"
	"svard/internal/population"
	"svard/internal/profile"
	"svard/internal/rng"
	"svard/internal/rowtab"
	"svard/internal/sim"
	"svard/internal/trace"
)

// The per-layer probes time calls into each layer's public functions
// from outside. They run only in a traced run, after the routes, with
// fixed operation counts.

// sink keeps the compiler from discarding a probe's loop.
var sink uint64

const probeReps = 5

// perOp runs batch probeReps times and returns the time per operation of
// the fastest batch; batch returns how many operations it performed. These
// are nanosecond-scale costs on a shared box, where interference only ever
// adds time: the fastest batch is the steadiest estimate of the code's own
// cost (the pass timings, where waiting is part of the result, use medians).
func perOp(batch func() int) (nanos float64) {
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		n := batch()
		if per := float64(time.Since(start)) / float64(n); i == 0 || per < nanos {
			nanos = per
		}
	}
	return nanos
}

func nanosToUs(nanos float64) float64 { return nanos / 1e3 }
func nanosToMs(nanos float64) float64 { return nanos / 1e6 }

// defenseKeys is the key space of the defense probes: 32 banks of 8192
// rows, the shape of the root package's benchDefenseHot.
var defenseKeys = mitigation.SystemInfo{Banks: 32, RowsPerBank: 8192, REFWCycles: 2_000_000, Seed: 1}

var defenseBuilders = []struct {
	name  string
	build func(si mitigation.SystemInfo, th core.Thresholds) mitigation.Defense
}{
	{"aqua", func(si mitigation.SystemInfo, th core.Thresholds) mitigation.Defense { return aqua.New(si, th, 3.2) }},
	{"blockhammer", func(si mitigation.SystemInfo, th core.Thresholds) mitigation.Defense {
		return blockhammer.New(si, th)
	}},
	{"hydra", func(si mitigation.SystemInfo, th core.Thresholds) mitigation.Defense { return hydra.New(si, th) }},
	{"para", func(si mitigation.SystemInfo, th core.Thresholds) mitigation.Defense { return para.New(si, th) }},
	{"rrs", func(si mitigation.SystemInfo, th core.Thresholds) mitigation.Defense { return rrs.New(si, th, 3.2) }},
}

// engineProbes times the simulator's inner layers: rng, rowtab, the
// trace synthesizer, Svärd's lookup, the five defenses' activation path,
// the controller's tick and next-event bound, and module calibration.
func engineProbes(l ledger, in *inputs) error {
	const n = 1 << 20

	r := rng.New(in.seed)
	l.set("rng.uint64_ns", "ns", (perOp(func() int {
		for i := 0; i < n; i++ {
			sink += r.Uint64()
		}
		return n
	})), probeReps)

	wl, ok := trace.ByName("ycsb-a")
	if !ok {
		return fmt.Errorf("workload ycsb-a is gone from the catalog")
	}
	z := rng.NewZipf(wl.HotBlocks, wl.ZipfS)
	l.set("rng.zipf_sample_ns", "ns", (perOp(func() int {
		for i := 0; i < n/4; i++ {
			sink += uint64(z.Sample(r))
		}
		return n / 4
	})), probeReps)

	keys := int64(defenseKeys.Banks * defenseKeys.RowsPerBank)
	tab := rowtab.New[uint32](keys)
	l.set("rowtab.get_set_ns", "ns", (perOp(func() int {
		for i := int64(0); i < n; i++ {
			k := (i * 613) % keys
			tab.Set(k, tab.Get(k)+1)
		}
		return n
	})), probeReps)

	synth := trace.NewSynth(wl, 0, in.seed)
	l.set("trace.synth_next_ns", "ns", (perOp(func() int {
		for i := 0; i < n/4; i++ {
			_, addr, _ := synth.Next()
			sink += addr
		}
		return n / 4
	})), probeReps)

	for _, d := range defenseBuilders {
		def := d.build(defenseKeys, core.Fixed(1024))
		i := 0 // cycles keep rising across batches, as they do in a run
		l.set("mitigation."+d.name+".activate_ns", "ns", (perOp(func() int {
			for end := i + n/4; i < end; i++ {
				bank, row, cycle := i&31, (i*613)&8191, uint64(i)*50
				if ok, _ := def.CanActivate(bank, row, cycle); ok {
					sink += uint64(len(def.OnActivate(bank, row, cycle)))
				}
			}
			return n / 4
		})), probeReps)
	}

	tick, next := controllerProbe(in.seed)
	l.set("memctrl.tick_ns", "ns", tick, probeReps)
	l.set("memctrl.next_event_ns", "ns", next, probeReps)

	// Module calibration, as sim does it on a cell's first use of a
	// module: S0 at the sweep's geometry, profiled over all 16 banks.
	spec, ok := profile.SpecByLabel("S0")
	if !ok {
		return fmt.Errorf("module S0 is gone from Table 5")
	}
	base := in.fig12.Base
	var mod *profile.Module
	var buildErr error
	l.set("profile.build_scaled_ms", "ms", nanosToMs(perOp(func() int {
		mod, buildErr = profile.BuildScaled(spec, in.seed, base.RowsPerBank, base.CellsPerRow)
		return 1
	})), probeReps)
	if buildErr != nil {
		return buildErr
	}
	banks := make([]int, 16)
	for i := range banks {
		banks[i] = i
	}
	var prof *profile.VulnProfile
	l.set("profile.capture_ms", "ms", nanosToMs(perOp(func() int {
		prof = profile.Capture(mod.NewModel(), "S0", banks)
		return 1
	})), probeReps)

	sv, err := core.New(prof.ScaledTo(64))
	if err != nil {
		return err
	}
	l.set("core.svard_lookup_ns", "ns", (perOp(func() int {
		var acc float64
		for i := 0; i < n; i++ {
			acc += sv.ActivationBudget(i&15, (i*613)%base.RowsPerBank)
		}
		sink += uint64(acc)
		return n
	})), probeReps)
	return nil
}

// controllerProbe drives a controller over the defense-free baseline
// with one read offered per cycle — more than it can serve, so its queue
// stays full — and times Tick. A second, identical drive also asks for
// the next-event bound every cycle; the difference is what NextEvent adds.
// (An idle Tick computes the bound it then caches, so most of the bound's
// cost is, by design, inside tick_ns.)
func controllerProbe(seed uint64) (tickNanos, nextNanos float64) {
	const cycles = 200_000
	cfg := memctrl.DefaultConfig(2048)
	timing := mem.CyclesFrom(dram.DDR4Timing(3200), cfg.CPUGHz)
	done := func(uint64) {}
	drive := func(withNext bool) int {
		c := memctrl.New(cfg, timing, mitigation.Nop{}, nil)
		r := rng.New(seed)
		for cycle := uint64(0); cycle < cycles; cycle++ {
			c.Read(r.Uint64()&(1<<30-1)&^63, 0, done, cycle)
			c.Tick(cycle)
			if withNext {
				sink += c.NextEvent(cycle)
			}
		}
		return cycles
	}
	tickNanos = perOp(func() int { return drive(false) })
	return tickNanos, max(perOp(func() int { return drive(true) })-tickNanos, 0)
}

// pipelineProbes times the layers between the simulator and the wire:
// the worker pool, cache keys, envelopes, the disk and memory layers, and
// the campaign's job expansion and fingerprint.
func pipelineProbes(l ledger, in *inputs) error {
	jobs, err := in.spec.Jobs()
	if err != nil {
		return err
	}
	n := len(jobs)

	l.set("exec.map_overhead_us", "us", nanosToUs(perOp(func() int {
		const calls = 500
		for i := 0; i < calls; i++ {
			out, _ := exec.Map(in.workers, n, func(i int) (int, error) { return i, nil })
			sink += uint64(len(out))
		}
		return calls
	})), probeReps)

	keys := make([]string, n)
	l.set("cache.key_us", "us", nanosToUs(perOp(func() int {
		for i, j := range jobs {
			keys[i] = cache.Key(j.Config)
		}
		return n
	})), probeReps)

	res := sim.Result{IPC: make([]float64, in.fig12.Base.Cores), Cycles: 1, Finished: true}
	sealed, err := cache.Seal(keys[0], res)
	if err != nil {
		return err
	}
	l.set("cache.envelope_open_us", "us", nanosToUs(perOp(func() int {
		const calls = 1000
		for i := 0; i < calls; i++ {
			if _, err := cache.OpenEnvelope(keys[0], sealed); err != nil {
				panic(err) // sealed a line above
			}
		}
		return calls
	})), probeReps)

	// One directory per repetition: a put into an occupied key would not
	// be the write a cold campaign pays.
	var probeErr error
	puts, opens, disks, mems := make([]float64, probeReps), make([]float64, probeReps), make([]float64, probeReps), make([]float64, probeReps)
	for rep := 0; rep < probeReps && probeErr == nil; rep++ {
		probeErr = func() error {
			dir, err := in.mkTemp("cache-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			store, err := cache.Open(dir, 0)
			if err != nil {
				return err
			}
			start := time.Now()
			for _, k := range keys {
				if err := store.Put(k, res); err != nil {
					return err
				}
			}
			puts[rep] = ms(time.Since(start)) / float64(n)

			start = time.Now()
			if store, err = cache.Open(dir, 0); err != nil {
				return err
			}
			opens[rep] = ms(time.Since(start))

			for pass, into := range [][]float64{disks, mems} {
				start = time.Now()
				for _, k := range keys {
					if _, ok := store.Get(k); !ok {
						return fmt.Errorf("cache: key %s vanished (read %d)", k[:8], pass)
					}
				}
				into[rep] = us(time.Since(start)) / float64(n)
			}
			return nil
		}()
	}
	if probeErr != nil {
		return probeErr
	}
	l.set("cache.put_ms", "ms", median(puts), probeReps)
	l.set("cache.open_ms", "ms", median(opens), probeReps)
	l.set("cache.get_disk_us", "us", median(disks), probeReps)
	l.set("cache.get_mem_us", "us", median(mems), probeReps)

	l.set("campaign.jobs_expand_us", "us", nanosToUs(perOp(func() int {
		const calls = 50
		for i := 0; i < calls; i++ {
			j, _ := in.spec.Jobs()
			sink += uint64(len(j))
		}
		return calls
	})), probeReps)
	l.set("campaign.fingerprint_us", "us", nanosToUs(perOp(func() int {
		const calls = 50
		for i := 0; i < calls; i++ {
			sink += uint64(len(in.spec.Fingerprint()))
		}
		return calls
	})), probeReps)
	return nil
}

// tally counts the simulation cells a probe ran and how many of them a
// fixture or a sibling run refuted.
type tally struct{ cells, failed int }

func (t *tally) add(cells int, err error) {
	t.cells += cells
	if err != nil {
		t.failed += cells
		fmt.Fprintln(os.Stderr, "bench: probe:", err)
	}
}

// simProbes times whole-simulator variants against the in-process sweep:
// the flight recorder's cost, pooled against fresh machine state, and one
// pass each of the HBM2 backend, Fig. 13, a Monte Carlo module and the
// characterization suite. A fixture backs a probe when the run's seed is
// the fixture's.
func simProbes(ctx context.Context, l ledger, in *inputs) (tally, error) {
	var t tally

	jobs := sim.Fig12Jobs(in.fig12)

	// Recorded against unrecorded passes, alternating so drift hits both.
	recorded := in.fig12
	recorded.Runner = func(cfg sim.Config) (sim.Result, error) {
		var rec obs.Recorder
		return sim.PooledRunRecorded(cfg, &rec)
	}
	const pairs = 2
	var plain, rec []float64
	var digest string
	for i := 0; i < 2*pairs; i++ {
		opt, into := in.fig12, &plain
		if i%2 == 1 {
			opt, into = recorded, &rec
		}
		start := time.Now()
		cells, err := sim.RunFig12Ctx(ctx, opt)
		*into = append(*into, ms(time.Since(start)))
		if err != nil {
			return t, err
		}
		d, _ := digestOf(cells)
		if digest == "" {
			digest = d
		}
		if d != digest {
			err = fmt.Errorf("recorded and unrecorded sweeps fold differently")
		}
		t.add(len(jobs), err)
	}
	l.set("obs.recorder_overhead_ratio", "ratio", median(rec)/median(plain), pairs)

	// One busy cell, on pooled and on fresh machine state.
	cell := jobs[len(jobs)-1].Config
	var pooled, fresh []float64
	for i := 0; i < probeReps; i++ {
		for _, v := range []struct {
			run  sim.Runner
			into *[]float64
		}{{sim.PooledRun, &pooled}, {sim.Run, &fresh}} {
			start := time.Now()
			_, err := v.run(cell)
			*v.into = append(*v.into, ms(time.Since(start)))
			t.add(1, err)
		}
	}
	l.set("sim.pool_vs_fresh_ratio", "ratio", median(pooled)/median(fresh), probeReps)

	var hbm fig12Fixture
	if err := readFixture(in.root, "fig12_hbm2_golden.json", &hbm); err != nil {
		return t, err
	}
	hopt := sim.Fig12Options{
		Base: hbm.Base, Mixes: hbm.Mixes, NRHs: hbm.NRHs, Defenses: hbm.Defenses, Profiles: hbm.Profiles,
		Workers: in.workers,
	}
	hopt.Base.Seed = in.seed
	if _, err := sim.RunFig12Ctx(ctx, hopt); err != nil { // calibrates the HBM2 geometry's module
		return t, err
	}
	start := time.Now()
	hcells, err := sim.RunFig12Ctx(ctx, hopt)
	l.set("dram.hbm2_pass_ms", "ms", ms(time.Since(start)), 1)
	if err == nil && in.seed == hbm.Base.Seed && !reflect.DeepEqual(hcells, hbm.Cells) {
		err = fmt.Errorf("HBM2 cells differ from fig12_hbm2_golden.json")
	}
	t.add(len(sim.Fig12Jobs(hopt)), err)

	var f13 fig13Fixture
	if err := readFixture(in.root, "fig13_golden.json", &f13); err != nil {
		return t, err
	}
	fopt := sim.Fig13Options{Base: f13.Base, NRH: f13.NRH, Benign: f13.Benign, Profiles: f13.Profiles, Workers: in.workers}
	fopt.Base.Seed = in.seed
	fjobs, err := sim.Fig13Jobs(fopt)
	if err != nil {
		return t, err
	}
	start = time.Now()
	fcells, err := sim.RunFig13Ctx(ctx, fopt)
	l.set("sim.fig13_pass_ms", "ms", ms(time.Since(start)), 1)
	if err == nil && in.seed == f13.Base.Seed && !reflect.DeepEqual(fcells, f13.Cells) {
		err = fmt.Errorf("Fig. 13 cells differ from fig13_golden.json")
	}
	t.add(len(fjobs), err)

	// One synthetic module, calibration included: the population sweep
	// evicts every module after folding it, so recalibration is its cost.
	popt := sim.PopulationOptions{
		Base: in.fig12.Base, Population: population.Ref{Seed: in.seed, Size: 1},
		Mixes: in.golden.Mixes[:1], NRHs: []float64{64}, Defenses: []string{"para"}, Workers: in.workers,
	}
	pjobs, err := sim.PopulationJobs(popt)
	if err != nil {
		return t, err
	}
	start = time.Now()
	_, err = sim.RunPopulationCtx(ctx, popt)
	l.set("population.module_ms", "ms", ms(time.Since(start)), 1)
	t.add(len(pjobs), err)

	suite, err := charzSuite(in.seed)
	if err != nil {
		return t, err
	}
	l.set("charz.suite_ms", "ms", ms(suite), 1)
	return t, nil
}

// charzSuite regenerates Table 5 and Figs. 3–10 at the scale of the root
// package's bench_test.go — the same module and stride per figure — and
// returns the time the figure drivers took, module builds excluded.
func charzSuite(seed uint64) (time.Duration, error) {
	const fig8Span = 3 // k swept on either side of the true subarray count
	mods := map[string]*profile.Module{}
	for _, label := range []string{"H0", "M1", "S4", "S0", "H4", "H2", "S2", "S1", "H3"} {
		spec, ok := profile.SpecByLabel(label)
		if !ok {
			return 0, fmt.Errorf("module %s is gone from Table 5", label)
		}
		m, err := profile.BuildScaled(spec, seed, 2048, 2048)
		if err != nil {
			return 0, err
		}
		mods[label] = m
	}
	start := time.Now()
	row := charz.Table5(mods["H0"], 1)
	f3 := charz.Fig3(mods["M1"], 4)
	f4 := charz.Fig4(mods["S4"], 128)
	f5 := charz.Fig5(mods["S0"], 2)
	f6 := charz.Fig6(mods["H4"], 128)
	f7 := charz.Fig7(mods["H2"], 4)
	f8 := charz.Fig8(mods["S2"], fig8Span)
	f9 := charz.Fig9(mods["S1"])
	f10 := charz.Fig10(mods["H3"], 68, 2)
	took := time.Since(start)
	switch {
	case row.MinHC != mods["H0"].Spec.MinHC:
		return 0, fmt.Errorf("charz: Table 5 minimum %v, module says %v", row.MinHC, mods["H0"].Spec.MinHC)
	// Which k the silhouette sweep picks is an estimate that moves with the
	// seed (within one or two of the truth); that it picks one of the swept
	// k is the shape.
	case len(f3.Banks) != 4 || len(f4) == 0 || len(f5) != 14 || len(f6) == 0 || len(f7) < 3 ||
		len(f8.Curve) == 0 || f8.BestK < f8.TruthK-fig8Span || f8.BestK > f8.TruthK+fig8Span ||
		len(f9.Fraction) == 0 || len(f10) == 0:
		return 0, fmt.Errorf("charz: a figure driver lost its shape")
	}
	return took, nil
}
