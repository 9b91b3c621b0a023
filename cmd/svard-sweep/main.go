// svard-sweep regenerates the paper's performance evaluation — Fig. 12
// (five defenses with and without Svärd across worst-case HCfirst
// values), Obsv. 15's residual overheads, and Fig. 13 (adversarial
// access patterns) — and is the only binary that does. The sweeps run
// as resumable campaigns over the content-addressed result cache: every
// simulation cell persists under -cache-dir keyed by its full
// configuration, so re-running a campaign — after a crash, or with one
// changed knob — recomputes only the cells that have never been
// computed, and an interrupted sweep run again with the same flags picks
// up exactly where it stopped with bit-identical results (the cells its
// journal lists are reported as resumed).
//
// Usage:
//
//	svard-sweep [-fig12] [-fig13] [-cache-dir DIR] [-parallel N]
//	            [-mixes N | -mix a,b,... (repeatable)] [-instr N] [-warmup N]
//	            [-cores N] [-rows N] [-seed N]
//	            [-defenses para,rrs] [-nrhs 1024,64] [-profiles S0,M0]
//	            [-backends ddr4-3200,hbm2] [-benign mcf06,...] [-nrh13 64]
//	            [-population N] [-population-seed S] [-bands-json FILE]
//	            [-temporal epoch=65536,drift=-0.05,sigma=0.1] [-temporal-intervals 0,16,64]
//	            [-spec campaign.json] [-print-spec] [-q]
//	            [-trace FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// With neither -fig12 nor -fig13, both figures run. Defaults are scaled
// for minutes-scale runs; raise -mixes/-instr toward the paper's 120
// mixes x 200M instructions as budget allows (see EXPERIMENTS.md).
// An empty -cache-dir is the uncached one-shot: nothing persists,
// nothing resumes.
//
// A campaign can also be declared as a JSON file (-spec); explicit
// flags override the file's fields. -print-spec prints the normalized
// campaign (suitable as a -spec file) without running anything. After a
// run, the campaign's figures print to stdout — the Fig. 12 tables are
// followed by the Obsv. 15 overheads at the smallest swept nRH — then
// the cache statistics (hits, misses, corrupt entries recomputed).
//
// Examples:
//
//	svard-sweep -mixes 3 -instr 120000 -cache-dir ''      # Fig. 12 + Obsv. 15 + Fig. 13, one shot
//	svard-sweep -fig12 -nrhs 1024,64 -defenses para,rrs   # small sweep, cache cold
//	svard-sweep -fig12 -nrhs 1024,64 -defenses para,rrs   # same again: all cache hits
//	svard-sweep -fig12 -mixes 120 -instr 200000000        # paper scale; Ctrl-C it...
//	svard-sweep -fig12 -mixes 120 -instr 200000000        # ...and pick it back up
//	svard-sweep -population 1000 -bands-json bands.json   # Monte Carlo confidence bands
//	svard-sweep -temporal epoch=65536,drift=-0.05,sigma=0.1  # margin erosion vs re-calibration interval
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/dram"
	"svard/internal/obs"
	"svard/internal/report"
	"svard/internal/sim"
	"svard/internal/temporal"
	"svard/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		specFile  = flag.String("spec", "", "campaign spec JSON file (flags override its fields)")
		printSpec = flag.Bool("print-spec", false, "print the normalized campaign spec as JSON and exit")

		cacheDir = flag.String("cache-dir", ".svard-cache", "result cache directory ('' disables persistence)")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")

		fig12 = flag.Bool("fig12", false, "run the Fig. 12 sweep")
		fig13 = flag.Bool("fig13", false, "run the Fig. 13 adversarial evaluation")

		mixes    = flag.Int("mixes", 4, "number of drawn workload mixes (paper: 120)")
		instr    = flag.Uint64("instr", 150_000, "instructions per core (paper: 200M)")
		warmup   = flag.Uint64("warmup", 30_000, "warmup instructions per core (paper: 100M)")
		cores    = flag.Int("cores", 8, "cores per mix")
		rows     = flag.Int("rows", 8192, "rows per bank")
		seed     = flag.Uint64("seed", 1, "seed")
		defenses = flag.String("defenses", "", "comma-separated defense subset (default all five)")
		backends = flag.String("backends", "", "comma-separated memory backends to sweep (default ddr4-3200; have "+strings.Join(dram.BackendNames(), ", ")+")")
		nrhs     = flag.String("nrhs", "", "comma-separated HCfirst sweep (default 4096..64)")
		profiles = flag.String("profiles", "", "comma-separated module profiles (default S0,M0,H1)")
		benign   = flag.String("benign", "", "comma-separated Fig. 13 benign workloads")
		nrh13    = flag.Float64("nrh13", 0, "Fig. 13 HCfirst (default 64)")
		quiet    = flag.Bool("q", false, "suppress progress output")

		popSize  = flag.Int("population", 0, "sweep a synthetic module population of this size (Fig. 12 confidence bands instead of per-profile points)")
		popSeed  = flag.Uint64("population-seed", 1, "population seed: any module of the population is reconstructible from (seed, index)")
		bandsOut = flag.String("bands-json", "", "write the population band cells as JSON to this file")

		temporalSpec      = flag.String("temporal", "", "temporal process spec, e.g. epoch=65536,drift=-0.05,sigma=0.1 (margin-erosion sweep instead of Fig. 12 points)")
		temporalIntervals = flag.String("temporal-intervals", "", "comma-separated re-calibration intervals in epochs (default 0,16,64)")

		traceOut = flag.String("trace", "", "write a flight-recorder timeline of the campaign (Chrome trace_event JSON for chrome://tracing / Perfetto / svard-trace) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	var explicitMixes [][]string
	flag.Func("mix", "one explicit workload mix, comma-separated (repeatable; overrides -mixes)", func(s string) error {
		mix, err := trace.ParseMix(s, 0)
		if err != nil {
			return err
		}
		explicitMixes = append(explicitMixes, mix)
		return nil
	})
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// Seed the sizing knobs from the flag defaults before loading any spec
	// file, so a file that omits them declares the same campaign (and hits
	// the same cache keys) as the equivalent flag invocation; fields the
	// file does set override the seed, and explicitly set flags override
	// the file below.
	spec := campaign.Spec{Base: sim.DefaultConfig()}
	spec.Base.InstrPerCore = *instr
	spec.Base.WarmupPerCore = *warmup
	spec.Base.Cores = *cores
	spec.Base.RowsPerBank = *rows
	spec.Base.Seed = *seed
	if *specFile != "" {
		if err := campaign.ReadSpec(*specFile, &spec); err != nil {
			return err
		}
	}

	// Explicit flags override the spec file.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fromSpecFile := *specFile != ""
	// -mixes draws mixes only when none are pinned explicitly; silently
	// sweeping the pinned mixes while the user asked for N drawn ones
	// would misreport the campaign.
	if set["mixes"] && (len(explicitMixes) > 0 || len(spec.Mixes) > 0) {
		return fmt.Errorf("-mixes conflicts with explicitly pinned mixes (from -mix or the spec file); drop one")
	}
	applyIf := func(name string, apply func()) {
		if set[name] || !fromSpecFile {
			apply()
		}
	}
	applyIf("mixes", func() { spec.MixCount = *mixes })
	applyIf("instr", func() { spec.Base.InstrPerCore = *instr })
	applyIf("warmup", func() { spec.Base.WarmupPerCore = *warmup })
	applyIf("cores", func() { spec.Base.Cores = *cores })
	applyIf("rows", func() { spec.Base.RowsPerBank = *rows })
	applyIf("seed", func() { spec.Base.Seed = *seed })
	applyIf("nrh13", func() { spec.NRH13 = *nrh13 })
	if len(explicitMixes) > 0 {
		spec.Mixes = explicitMixes
	}
	if set["defenses"] {
		spec.Defenses = splitList(*defenses)
	}
	if set["backends"] {
		spec.Backends = splitList(*backends)
	}
	if set["profiles"] {
		spec.Profiles = splitList(*profiles)
	}
	if set["benign"] {
		spec.Benign = splitList(*benign)
	}
	if set["nrhs"] {
		spec.NRHs = nil
		for _, s := range splitList(*nrhs) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return err
			}
			spec.NRHs = append(spec.NRHs, v)
		}
	}
	if *fig12 || *fig13 {
		spec.Figures = nil
		if *fig12 {
			spec.Figures = append(spec.Figures, campaign.Fig12)
		}
		if *fig13 {
			spec.Figures = append(spec.Figures, campaign.Fig13)
		}
	}
	if set["population"] || set["population-seed"] {
		spec.Population = &campaign.PopulationSpec{Seed: *popSeed, Size: *popSize}
	}
	if set["temporal"] {
		proc, err := temporal.ParseSpec(*temporalSpec)
		if err != nil {
			return err
		}
		spec.Temporal = &campaign.TemporalSpec{Process: proc}
	}
	if set["temporal-intervals"] {
		if spec.Temporal == nil {
			return fmt.Errorf("-temporal-intervals requires -temporal (or a spec file with a temporal block)")
		}
		spec.Temporal.Intervals = nil
		for _, s := range splitList(*temporalIntervals) {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return err
			}
			spec.Temporal.Intervals = append(spec.Temporal.Intervals, v)
		}
	}
	// Population and temporal campaigns only sweep the Fig. 12 grid; when
	// the figure flags are silent, pin Fig. 12 rather than letting the
	// default (both figures) fail validation.
	if (set["population"] || set["population-seed"] || set["temporal"]) && len(spec.Figures) == 0 {
		spec.Figures = []string{campaign.Fig12}
	}

	plan, err := spec.Plan()
	if err != nil {
		return err
	}
	if *printSpec {
		// Print the normalized campaign: with the figures and the drawn
		// mixes pinned, the emitted file reproduces this exact sweep even
		// if the drawing defaults ever change.
		b, err := json.MarshalIndent(plan.Spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}

	store, err := cache.Open(*cacheDir, 0)
	if err != nil {
		return err
	}
	if !*quiet {
		where := *cacheDir
		if where == "" {
			where = "(memory only)"
		}
		fmt.Fprintf(os.Stderr, "campaign %s: %d simulation jobs, cache %s\n",
			plan.Fingerprint[:16], len(plan.Jobs), where)
	}

	eng := &campaign.Engine{Store: store, Workers: *parallel}
	if *traceOut != "" {
		eng.Trace = obs.NewTrace()
	}
	if !*quiet {
		var mu sync.Mutex
		done := 0
		eng.Observe = func(cfg sim.Config, _ string) {
			label := campaign.CellLabel(cfg)
			mu.Lock()
			defer mu.Unlock()
			done++
			fmt.Fprintf(os.Stderr, "\r%d/%d %-60s", done, len(plan.Jobs), label)
		}
	}
	// Ctrl-C / SIGTERM cancels the campaign promptly: in-flight cells
	// finish (and are cached and journaled), nothing new starts, and the
	// journal stays valid for the next run. Deregistering on the first signal
	// restores default handling, so a second Ctrl-C during the drain
	// kills the process instead of being swallowed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	out, err := eng.RunPlan(ctx, plan)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	// Write the timeline even on an interrupted run: a partial trace of
	// what did execute is exactly what you want when diagnosing why a
	// campaign stalled.
	if *traceOut != "" {
		if terr := eng.Trace.WriteFile(*traceOut); terr != nil {
			fmt.Fprintln(os.Stderr, terr)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "trace written to %s (%d cells; inspect with svard-trace, or open in chrome://tracing)\n",
				*traceOut, eng.Trace.Len())
		}
	}
	if err != nil {
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "campaign interrupted (cache %s; re-run the same command to continue): ", *cacheDir)
		}
		return err
	}

	report.Outcome(os.Stdout, spec.Defenses, out)
	fmt.Printf("cache: %s\n", out.Stats)
	if *bandsOut != "" && out.Bands != nil {
		b, err := report.BandsJSON(out.Bands)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*bandsOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bands written to %s\n", *bandsOut)
		}
	}
	return nil
}

// startProfiles begins -cpuprofile and arms -memprofile; run defers the
// returned stop, so every exit path — errors and interrupts included —
// leaves complete profiles. The CPU profile file is closed inside stop,
// after StopCPUProfile's final flush: closing it any earlier truncates
// short profiles to zero bytes.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
		// Tag each cell's samples with its sweep coordinates so
		// `go tool pprof -tags` splits the profile by defense/nRH/module.
		// Off unless profiling: pprof.Do costs allocations per cell.
		obs.EnableProfilingLabels()
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		runtime.GC() // materialize the steady-state heap before the snapshot
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
