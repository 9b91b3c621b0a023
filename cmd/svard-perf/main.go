// svard-perf regenerates the paper's performance evaluation: Fig. 12
// (five defenses with and without Svärd across worst-case HCfirst
// values), Obsv. 15's residual overheads, and Fig. 13 (adversarial
// access patterns).
//
// Usage:
//
//	svard-perf [-mixes N] [-instr N] [-defenses para,rrs] [-nrhs 1024,64] [-fig13] [-parallel N]
//	           [-backend hbm2] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Defaults are scaled for minutes-scale runs; raise -mixes/-instr toward
// the paper's 120 mixes x 200M instructions as budget allows (see
// EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/dram"
	"svard/internal/obs"
	"svard/internal/report"
	"svard/internal/sim"
	"svard/internal/trace"
)

func main() {
	var (
		mixes    = flag.Int("mixes", 4, "number of 8-core workload mixes (paper: 120)")
		instr    = flag.Uint64("instr", 150_000, "instructions per core (paper: 200M)")
		warmup   = flag.Uint64("warmup", 30_000, "warmup instructions per core (paper: 100M)")
		cores    = flag.Int("cores", 8, "cores per mix")
		rows     = flag.Int("rows", 8192, "rows per bank")
		seed     = flag.Uint64("seed", 1, "seed")
		defenses = flag.String("defenses", "", "comma-separated defense subset (default all)")
		backend  = flag.String("backend", "", "memory backend preset (default ddr4-3200; have "+strings.Join(dram.BackendNames(), ", ")+")")
		nrhs     = flag.String("nrhs", "", "comma-separated HCfirst sweep (default 4096..64)")
		fig12    = flag.Bool("fig12", false, "run Fig. 12")
		fig13    = flag.Bool("fig13", false, "run Fig. 13 (adversarial patterns)")
		obsv15   = flag.Bool("obsv15", false, "print Obsv. 15 overheads at HCfirst=64")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = flag.String("cache-dir", "", "reuse simulation results from this content-addressed cache (see svard-sweep)")
		noSkip   = flag.Bool("noskip", false, "drive every simulation through the per-cycle reference loop instead of the event-driven engine (bit-identical, ~2x slower; see EXPERIMENTS.md)")
		quiet    = flag.Bool("q", false, "suppress progress output")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// flushProfiles finalizes -cpuprofile/-memprofile output. Every exit
	// path must run it — the error paths below call fail, which flushes
	// before os.Exit (a deferred flush alone would be skipped and leave
	// a truncated CPU profile and no heap profile). The CPU profile file
	// is closed HERE, after StopCPUProfile's final flush — closing it on
	// a separate defer would run before this one and truncate short
	// profiles to zero bytes.
	flushed := false
	var cpuFile *os.File
	flushProfiles := func() {
		if flushed {
			return
		}
		flushed = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	defer flushProfiles()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		flushProfiles()
		os.Exit(1)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		cpuFile = f
		// Tag each cell's samples with its sweep coordinates so
		// `go tool pprof -tags` splits the profile by defense/nRH/module.
		// Off unless profiling: pprof.Do costs allocations per cell.
		obs.EnableProfilingLabels()
	}
	if !*fig12 && !*fig13 && !*obsv15 {
		*fig12, *fig13, *obsv15 = true, true, true
	}

	// Ctrl-C / SIGTERM aborts the sweep within one simulation's latency
	// instead of draining the whole job list; a second signal during the
	// drain kills the process the default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	base := sim.DefaultConfig()
	base.Cores = *cores
	base.RowsPerBank = *rows
	base.InstrPerCore = *instr
	base.WarmupPerCore = *warmup
	base.Seed = *seed
	base.NoSkip = *noSkip
	base.Backend = *backend
	be, err := dram.BackendByName(*backend)
	if err != nil {
		fail(err)
	}

	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%-60s", msg)
		}
	}

	// With -cache-dir, every simulation routes through the persistent
	// result cache shared with svard-sweep: cells already computed by any
	// prior run are reused instead of resimulated.
	var runner sim.Runner
	var store *cache.Store
	if *cacheDir != "" {
		var err error
		store, err = cache.Open(*cacheDir, 0)
		if err != nil {
			fail(err)
		}
		cell := campaign.Cell{Store: store}
		runner = func(cfg sim.Config) (sim.Result, error) {
			res, _, err := cell.Run(ctx, cfg, nil)
			return res, err
		}
	}

	if be.HBM {
		g := be.Geom
		fmt.Printf("Simulated system (%s): 8 cores 3.2GHz 4-wide 128-entry window,\n", be.Name)
		fmt.Printf("2MiB LLC/core; HBM2 %d channels x %d pseudo channels, %d rank(s),\n",
			g.Channels, g.PseudoChannels, g.Ranks)
		fmt.Printf("%d bank groups x %d banks, %d rows/bank (scaled); FR-FCFS cap 16, MOP.\n\n",
			g.BankGroups, g.BanksPerGroup, *rows)
	} else {
		fmt.Println("Table 4 simulated system: 8 cores 3.2GHz 4-wide 128-entry window,")
		fmt.Println("2MiB LLC/core; DDR4 1 channel, 2 ranks, 4 bank groups x 4 banks,")
		fmt.Printf("%d rows/bank (scaled; Table 4 uses 128K); FR-FCFS cap 16, MOP.\n\n", *rows)
	}

	if *fig12 || *obsv15 {
		opt := sim.Fig12Options{
			Base:     base,
			Mixes:    trace.Mixes(*mixes, *cores, *seed),
			Workers:  *parallel,
			Runner:   runner,
			Progress: progress,
		}
		if *defenses != "" {
			opt.Defenses = splitList(*defenses)
		}
		if *nrhs != "" {
			for _, s := range splitList(*nrhs) {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					fail(err)
				}
				opt.NRHs = append(opt.NRHs, v)
			}
		}
		cells, err := sim.RunFig12Ctx(ctx, opt)
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if *fig12 {
			names := opt.Defenses
			if len(names) == 0 {
				names = sim.DefenseNames
			}
			for _, d := range names {
				fmt.Println(report.Fig12(d, cells))
			}
		}
		if *obsv15 {
			low := 64.0
			if len(opt.NRHs) > 0 {
				low = opt.NRHs[len(opt.NRHs)-1]
			}
			fmt.Println(report.Obsv15(cells, low))
		}
	}

	if *fig13 {
		cells, err := sim.RunFig13Ctx(ctx, sim.Fig13Options{Base: base, Workers: *parallel, Runner: runner, Progress: progress})
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		fmt.Println(report.Fig13(cells))
	}

	if store != nil {
		fmt.Printf("cache: %s\n", store.Stats())
	}
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
