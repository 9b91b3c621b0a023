package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"

	"svard/internal/exec"
	"svard/internal/metrics"
	"svard/internal/obs"
	"svard/internal/profile"
	"svard/internal/trace"
)

// Runner executes one simulation of a sweep. Every sweep routes each job
// through its options' Runner, so a caller can interpose on the unit of
// work — the campaign engine (internal/campaign) injects a runner that
// consults the content-addressed result cache before falling back to the
// simulator. A nil Runner means PooledRun (bit-identical to Run, on the
// process-wide state pool). A Runner must be deterministic in its Config
// (Run and PooledRun are) and safe for concurrent use.
type Runner func(Config) (Result, error)

// Job is one simulation of a sweep's flat job list: the full Config it
// runs plus a human-readable progress label.
type Job struct {
	Label  string
	Config Config
}

// runJobs fans the job list out over the deterministic worker pool,
// routing each job through run (nil: PooledRun). Results come back in job
// order, bit-identical for any worker count. Cancelling ctx stops
// dispatching new jobs; jobs already running finish, so the sweep
// returns within one simulation's latency.
func runJobs(ctx context.Context, workers int, run Runner, progress func(string), jobs []Job) ([]Result, error) {
	if run == nil {
		run = PooledRun
	}
	if obs.ProfilingLabelsEnabled() {
		// Attach cell-identity pprof labels around each job so CPU
		// profiles (svard-sweep -cpuprofile, svard-served -pprof)
		// attribute samples to the cell that burned them. Off by default:
		// pprof.Do allocates per call, which would break the
		// allocation-flat sweep budget.
		unlabeled := run
		run = func(cfg Config) (res Result, err error) {
			labels := pprof.Labels(
				"defense", cfg.Defense,
				"nrh", strconv.FormatFloat(cfg.NRH, 'g', -1, 64),
				"module", cfg.ModuleLabel,
				"backend", backendLabel(cfg.Backend),
			)
			pprof.Do(ctx, labels, func(context.Context) { res, err = unlabeled(cfg) })
			return res, err
		}
	}
	report := exec.Progress(progress)
	return exec.MapCtx(ctx, workers, len(jobs), func(i int) (Result, error) {
		report(jobs[i].Label)
		return run(jobs[i].Config)
	})
}

// Fig12Options parameterizes the Fig. 12 sweep: five defenses, with and
// without Svärd (one configuration per representative manufacturer
// profile), across worst-case HCfirst values from 4K down to 64.
type Fig12Options struct {
	Base     Config     // sizing knobs (cores, instructions, module scale)
	Mixes    [][]string // workload mixes (paper: 120)
	NRHs     []float64  // default 4K..64
	Defenses []string   // default all five
	Profiles []string   // default S0, M0, H1
	Backends []string   // memory backends to sweep (default: just Base.Backend)

	Workers  int    // max concurrent simulations (<= 0: GOMAXPROCS)
	Runner   Runner // per-job executor (nil: PooledRun); see Runner
	Progress func(string)
}

// fill applies the sweep defaults; it is idempotent, so RunFig12Ctx and
// Fig12Jobs agree on the expansion no matter which is called first.
func (opt Fig12Options) fill() Fig12Options {
	fillGrid(opt.Base, &opt.Mixes, &opt.NRHs, &opt.Defenses)
	if len(opt.Profiles) == 0 {
		opt.Profiles = profile.RepresentativeLabels()
	}
	if len(opt.Backends) == 0 {
		opt.Backends = []string{opt.Base.Backend}
	}
	return opt
}

// fillGrid applies the defaults every (defense, nRH, mix) grid shares:
// four drawn mixes, the paper's threshold sweep, all five defenses.
func fillGrid(base Config, mixes *[][]string, nrhs *[]float64, defenses *[]string) {
	if len(*mixes) == 0 {
		*mixes = trace.Mixes(4, base.Cores, base.Seed)
	}
	if len(*nrhs) == 0 {
		*nrhs = DefaultNRHs()
	}
	if len(*defenses) == 0 {
		*defenses = DefenseNames
	}
}

// DefaultNRHs returns the paper's swept worst-case HCfirst values.
func DefaultNRHs() []float64 {
	return []float64{4096, 2048, 1024, 512, 256, 128, 64}
}

// Fig12Cell is one point of Fig. 12: a (defense, nRH, configuration)
// with its three metrics averaged over mixes, plus the min-max span the
// paper shades. Backend names the memory backend the cell ran on (empty
// = the DDR4 default, so single-backend sweeps and their fixtures are
// unchanged).
type Fig12Cell struct {
	Defense    string
	NRH        float64
	Config     string // "NoSvard", "Svard-S0", "Svard-M0", "Svard-H1"
	Backend    string `json:",omitempty"`
	WS, HS, MS float64
	WSMin      float64
	WSMax      float64
	Violations uint64
}

// Fig12Jobs expands the sweep into its flat job list, the enumeration
// every execution path shares: per backend, the defense-free baselines
// first (one per (module, mix), module-major), then one job per
// (defense, nRH, svard, module, mix) cell in the exact order the serial
// sweep visits them. The campaign engine uses the same expansion to size
// and checkpoint a campaign before running it.
func Fig12Jobs(opt Fig12Options) []Job {
	opt = opt.fill()
	var jobs []Job
	for _, be := range opt.Backends {
		// Backend labels only appear in multi-backend sweeps, so
		// single-backend job lists (and the campaign journals keyed on
		// them) read exactly as before.
		suffix := ""
		if len(opt.Backends) > 1 {
			suffix = " [" + backendLabel(be) + "]"
		}
		for _, mod := range opt.Profiles {
			for mi := range opt.Mixes {
				cfg := opt.Base
				cfg.Backend = be
				cfg.ModuleLabel = mod
				cfg.Mix = opt.Mixes[mi]
				cfg.Defense = "none"
				jobs = append(jobs, Job{
					Label:  fmt.Sprintf("baseline %s mix %d%s", mod, mi, suffix),
					Config: cfg,
				})
			}
		}
		for _, defense := range opt.Defenses {
			for _, nrh := range opt.NRHs {
				for _, svard := range []bool{false, true} {
					for _, mod := range opt.Profiles {
						for mi := range opt.Mixes {
							cfg := opt.Base
							cfg.Backend = be
							cfg.ModuleLabel = mod
							cfg.Mix = opt.Mixes[mi]
							cfg.Defense = defense
							cfg.NRH = nrh
							cfg.Svard = svard
							name := "NoSvard (" + mod + ")"
							if svard {
								name = "Svard-" + mod
							}
							jobs = append(jobs, Job{
								Label:  fmt.Sprintf("%s nRH=%v %s mix %d%s", defense, nrh, name, mi, suffix),
								Config: cfg,
							})
						}
					}
				}
			}
		}
	}
	return jobs
}

// backendLabel names a backend in progress labels; the empty string is
// the DDR4 default.
func backendLabel(be string) string {
	if be == "" {
		return "ddr4-3200"
	}
	return be
}

// RunFig12Ctx executes the sweep and returns cells in (defense, nRH,
// config) order.
//
// The sweep's cells are fully independent simulations: Fig12Jobs
// enumerates them as one flat list (baselines, then every
// (defense, nRH, module, svard, mix) cell), each job flows through
// opt.Runner on the deterministic worker pool, and the results fold back
// into cells by walking the same enumeration. Cells are bit-identical
// for any Workers value and for any Runner that is faithful to Run — in
// particular with the campaign engine's result cache cold, warm, or
// mixed.
//
// Once ctx is done no new cell starts, in-flight cells finish, and the
// call returns ctx's cause within one cell's latency. A cancelled sweep
// returns no cells — partial figures would silently misrepresent the
// sweep — but every completed cell already flowed through opt.Runner, so
// a caching runner (the campaign engine's) keeps them for the next run.
func RunFig12Ctx(ctx context.Context, opt Fig12Options) ([]Fig12Cell, error) {
	opt = opt.fill()
	jobs := Fig12Jobs(opt)
	results, err := runJobs(ctx, opt.Workers, opt.Runner, opt.Progress, jobs)
	if err != nil {
		return nil, err
	}

	// Per backend segment: the first len(Profiles)*len(Mixes) results are
	// the baselines, in module-major order, then the cells in enumeration
	// order. A single-backend sweep has exactly one segment, so its cells
	// (and fixtures) are unchanged from the pre-backend sweep.
	nMix := len(opt.Mixes)
	perBackend := len(opt.Profiles) * nMix * (1 + len(opt.Defenses)*len(opt.NRHs)*2)

	var cells []Fig12Cell
	for bi, be := range opt.Backends {
		off := bi * perBackend
		next := off + len(opt.Profiles)*nMix

		// Fold the per-run results back into cells, walking the job list
		// in its (deterministic) enumeration order.
		foldCell := func(defense string, nrh float64, modIdx int) Fig12Cell {
			cell := foldMixes(results[next:next+nMix], results[off+modIdx*nMix:][:nMix])
			next += nMix
			cell.Defense, cell.NRH, cell.Backend = defense, nrh, be
			return cell
		}

		for _, defense := range opt.Defenses {
			for _, nrh := range opt.NRHs {
				// No-Svärd: averaged over the three modules' chips (the
				// defense sees only the single worst-case threshold).
				var agg []Fig12Cell
				for modIdx := range opt.Profiles {
					agg = append(agg, foldCell(defense, nrh, modIdx))
				}
				merged := mergeCells(defense, nrh, "NoSvard", agg)
				merged.Backend = be
				cells = append(cells, merged)
				for modIdx, mod := range opt.Profiles {
					c := foldCell(defense, nrh, modIdx)
					c.Config = "Svard-" + mod
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// foldMixes folds one grid point — one result per mix — against the same
// module's per-mix no-defense baselines: the three Fig. 12 metrics
// averaged over mixes, the weighted-speedup span, and the summed
// violations, as a Fig12Cell without its coordinates. The Fig. 12 point
// fold and the population band fold are both this fold; they differ
// only in what they do with the cell.
func foldMixes(results, baselines []Result) (cell Fig12Cell) {
	wss := make([]float64, len(results))
	hss := make([]float64, len(results))
	mss := make([]float64, len(results))
	for mi, res := range results {
		base := baselines[mi].IPC
		cores := make([]metrics.PerCore, len(res.IPC))
		for c := range cores {
			cores[c] = metrics.PerCore{BaselineIPC: base[c], IPC: res.IPC[c]}
		}
		cell.Violations += res.Violations
		wss[mi] = metrics.WeightedSpeedup(cores)
		hss[mi] = metrics.HarmonicSpeedup(cores)
		mss[mi] = metrics.MaxSlowdown(cores)
	}
	cell.WS, cell.HS, cell.MS = mean(wss), mean(hss), mean(mss)
	cell.WSMin, cell.WSMax = minMax(wss)
	return cell
}

func mergeCells(defense string, nrh float64, config string, cs []Fig12Cell) Fig12Cell {
	out := Fig12Cell{Defense: defense, NRH: nrh, Config: config,
		WSMin: math.Inf(1), WSMax: math.Inf(-1)}
	if len(cs) == 0 {
		out.WSMin, out.WSMax = 0, 0
		return out
	}
	for _, c := range cs {
		out.WS += c.WS
		out.HS += c.HS
		out.MS += c.MS
		out.Violations += c.Violations
		if c.WSMin < out.WSMin {
			out.WSMin = c.WSMin
		}
		if c.WSMax > out.WSMax {
			out.WSMax = c.WSMax
		}
	}
	n := float64(len(cs))
	out.WS /= n
	out.HS /= n
	out.MS /= n
	return out
}

// Fig13Cell is one bar of Fig. 13: the slowdown an adversarial access
// pattern causes under a defense configuration, normalized to the
// defense without Svärd.
type Fig13Cell struct {
	Defense      string
	Config       string
	Backend      string  `json:",omitempty"` // empty = the DDR4 default
	Slowdown     float64 // mean benign-core slowdown vs the no-defense baseline
	RelToNoSvard float64
}

// Fig13Options parameterizes the adversarial evaluation.
type Fig13Options struct {
	Base     Config
	NRH      float64  // paper: 64
	Benign   []string // 7 benign workloads joining the attacker
	Profiles []string
	Backends []string // memory backends to sweep (default: just Base.Backend)

	Workers  int    // max concurrent simulations (<= 0: GOMAXPROCS)
	Runner   Runner // per-job executor (nil: PooledRun); see Runner
	Progress func(string)
}

// fill applies the adversarial sweep defaults (idempotent).
func (opt Fig13Options) fill() Fig13Options {
	if opt.NRH == 0 {
		opt.NRH = 64
	}
	if len(opt.Profiles) == 0 {
		opt.Profiles = profile.RepresentativeLabels()
	}
	if len(opt.Benign) == 0 {
		opt.Benign = []string{"mcf06", "lbm06", "ycsb-a", "tpcc", "h264dec", "milc06", "xz17"}
	}
	if len(opt.Backends) == 0 {
		opt.Backends = []string{opt.Base.Backend}
	}
	return opt
}

// validate checks the core count against the mix the sweep builds.
func (opt Fig13Options) validate() error {
	// Each mix is 1 attacker + the benign workloads; the config must ask
	// for at least one benign core (the slowdown metric averages over
	// them) and no more cores than the mix can fill.
	if opt.Base.Cores < 2 {
		return fmt.Errorf("sim: Fig. 13 needs >= 2 cores (1 attacker + >= 1 benign), got %d", opt.Base.Cores)
	}
	if max := 1 + len(opt.Benign); opt.Base.Cores > max {
		return fmt.Errorf("sim: Fig. 13 mix has %d workloads (1 attacker + %d benign) but the config asks for %d cores; add Benign workloads or lower Cores",
			max, len(opt.Benign), opt.Base.Cores)
	}
	return nil
}

// fig13Defenses are the defenses with known adversarial patterns: the
// targets trace.AttackTargets declares. Config.generatorFor must build a
// generator for every one of them — adding a target means adding its
// "attack:<target>" case there too; TestAttackTargetsHaveGenerators
// fails until both sides agree.
var fig13Defenses = trace.AttackTargets

// Fig13Jobs expands the adversarial evaluation into its flat job list:
// per backend and defense, the no-defense baseline, the defense without
// Svärd, then one Svärd run per profile — all independent.
func Fig13Jobs(opt Fig13Options) ([]Job, error) {
	opt = opt.fill()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	mod0 := opt.Profiles[0]
	for _, be := range opt.Backends {
		suffix := ""
		if len(opt.Backends) > 1 {
			suffix = " [" + backendLabel(be) + "]"
		}
		job := func(defense, module string, withDefense, svard bool, label string) Job {
			mix := append([]string{"attack:" + defense}, opt.Benign...)
			mix = mix[:opt.Base.Cores]
			cfg := opt.Base
			cfg.Backend = be
			cfg.ModuleLabel = module
			cfg.Mix = mix
			cfg.NRH = opt.NRH
			if withDefense {
				cfg.Defense = defense
				cfg.Svard = svard
			} else {
				cfg.Defense = "none"
			}
			return Job{Label: label + suffix, Config: cfg}
		}
		for _, defense := range fig13Defenses {
			jobs = append(jobs,
				job(defense, mod0, false, false, defense+" baseline"),
				job(defense, mod0, true, false, defense+" NoSvard"))
			for _, mod := range opt.Profiles {
				jobs = append(jobs, job(defense, mod, true, true, defense+" Svard-"+mod))
			}
		}
	}
	return jobs, nil
}

// RunFig13Ctx evaluates Hydra's and RRS's adversarial access patterns.
// Like RunFig12Ctx, the independent runs flow as a flat job list through
// opt.Runner over the exec pool, the cells are identical for any Workers
// value and any Runner faithful to Run, and cancellation follows the
// same contract.
func RunFig13Ctx(ctx context.Context, opt Fig13Options) ([]Fig13Cell, error) {
	opt = opt.fill()
	jobs, err := Fig13Jobs(opt)
	if err != nil {
		return nil, err
	}
	results, err := runJobs(ctx, opt.Workers, opt.Runner, opt.Progress, jobs)
	if err != nil {
		return nil, err
	}

	// Mean IPC of the benign cores (core 0 is the attacker).
	benignIPC := make([]float64, len(results))
	for i, res := range results {
		sum := 0.0
		for c := 1; c < len(res.IPC); c++ {
			sum += res.IPC[c]
		}
		benignIPC[i] = sum / float64(len(res.IPC)-1)
	}

	var cells []Fig13Cell
	next := 0
	for _, be := range opt.Backends {
		for _, defense := range fig13Defenses {
			baseIPC := benignIPC[next]
			noSvIPC := benignIPC[next+1]
			next += 2
			noSv := baseIPC / noSvIPC
			cells = append(cells, Fig13Cell{Defense: defense, Config: "NoSvard", Backend: be, Slowdown: noSv, RelToNoSvard: 1})
			for _, mod := range opt.Profiles {
				sd := baseIPC / benignIPC[next]
				next++
				cells = append(cells, Fig13Cell{
					Defense:      defense,
					Config:       "Svard-" + mod,
					Backend:      be,
					Slowdown:     sd,
					RelToNoSvard: sd / noSv,
				})
			}
		}
	}
	return cells, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
