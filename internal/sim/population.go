package sim

import (
	"context"
	"fmt"

	"svard/internal/population"
)

// PopulationOptions parameterizes the Monte Carlo Fig. 12-style sweep:
// the Fig. 12 (defense, nRH) grid evaluated over a synthetic module
// population instead of the three representative Table 5 profiles, with
// each module's weighted speedup folded into per-(defense, nRH)
// confidence bands.
type PopulationOptions struct {
	Base       Config
	Population population.Ref // required: Size >= 1
	Mixes      [][]string     // workload mixes per module (default: 4 drawn)
	NRHs       []float64      // default 4K..64
	Defenses   []string       // default all five

	// Chunk is how many modules' cells run before they fold into the
	// band accumulators, so a 10K-chip sweep holds a constant number of
	// results in memory. The module cache holds at most
	// maxResidentPopModules calibrated modules whatever the chunk; a
	// larger chunk may rebuild a module evicted mid-chunk. Chunking is
	// invisible in the results — cells fold in module order regardless —
	// so Chunk is a memory knob, never an axis of the outcome. Default
	// maxResidentPopModules (16).
	Chunk int

	Workers  int    // max concurrent simulations (<= 0: GOMAXPROCS)
	Runner   Runner // per-job executor (nil: PooledRun); see Runner
	Progress func(string)
}

// fill applies the sweep defaults (idempotent).
func (opt PopulationOptions) fill() PopulationOptions {
	fillGrid(opt.Base, &opt.Mixes, &opt.NRHs, &opt.Defenses)
	if opt.Chunk <= 0 {
		opt.Chunk = maxResidentPopModules
	}
	return opt
}

func (opt PopulationOptions) validate() error {
	if opt.Population.Size < 1 {
		return fmt.Errorf("sim: population sweep needs Population.Size >= 1, got %d", opt.Population.Size)
	}
	return nil
}

// Population band configurations: the defense assuming the single
// worst-case threshold, and the defense with Svärd's per-row profile.
const (
	BandNoSvard = "NoSvard"
	BandSvard   = "Svard"
)

// BandCell is one point of the population sweep: a (defense, nRH,
// config) with the distribution of each Fig. 12 metric over the sampled
// modules. Violations sums observed bitflips across the population's
// runs.
type BandCell struct {
	Defense    string
	NRH        float64
	Config     string // BandNoSvard or BandSvard
	Modules    int    // population size folded in
	WS, HS, MS population.Band
	Violations uint64
}

// populationModuleJobs enumerates one module's flat job list. A sampled
// chip is just one more profile label, so this IS the single-profile
// Fig. 12 expansion: the defense-free baseline per mix, then one job per
// (defense, nRH, svard, mix) — the order RunPopulationCtx's foldModule
// consumes results in.
func populationModuleJobs(opt PopulationOptions, index int) []Job {
	return Fig12Jobs(Fig12Options{
		Base:     opt.Base,
		Mixes:    opt.Mixes,
		NRHs:     opt.NRHs,
		Defenses: opt.Defenses,
		Profiles: []string{population.Label(opt.Population.Seed, index)},
	})
}

// PopulationJobs expands the sweep into its flat, module-major job
// list — the enumeration RunPopulationCtx executes chunk by chunk, and the
// campaign engine uses to size and checkpoint a population campaign
// before running it.
func PopulationJobs(opt PopulationOptions) ([]Job, error) {
	opt = opt.fill()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	for i := 0; i < opt.Population.Size; i++ {
		jobs = append(jobs, populationModuleJobs(opt, i)...)
	}
	return jobs, nil
}

// bandAcc accumulates one (defense, nRH, config) cell's distributions.
type bandAcc struct {
	ws, hs, ms *population.Acc
	violations uint64
}

// Band accumulator shape: Fig. 12's metrics are speedups near 1 and max
// slowdowns rarely past a few x, so [0, 8) at 8192 bins gives ~1e-3
// quantile resolution; outliers clamp into the edge bins while their
// exact min/max still report.
func newBandAcc() bandAcc {
	return bandAcc{
		ws: population.NewAcc(0, 8, 8192),
		hs: population.NewAcc(0, 8, 8192),
		ms: population.NewAcc(0, 8, 8192),
	}
}

// RunPopulationCtx executes the Monte Carlo sweep and returns band
// cells in (defense, nRH, config) order — the population analogue of
// RunFig12Ctx's point estimates.
//
// The sweep streams: modules are evaluated Chunk at a time, each
// module's per-mix results fold into its three per-config metrics
// (weighted/harmonic speedup and max slowdown against the module's own
// no-defense baseline, averaged over mixes, exactly like Fig. 12's
// fold), and the metrics feed order-independent histogram accumulators.
// The module cache keeps at most maxResidentPopModules calibrated
// modules, evicting the oldest as new ones are built, so memory is
// O(Chunk + bins) for any population size.
// Bands are bit-identical for any Workers and Chunk value, and for any
// Runner faithful to Run — in particular the campaign engine's caching
// runner, cold, warm, or mid-resume.
//
// Cancellation follows RunFig12Ctx's contract: a cancelled sweep returns
// no cells, but every completed cell already flowed through opt.Runner,
// so a caching runner keeps them for the resume.
func RunPopulationCtx(ctx context.Context, opt PopulationOptions) ([]BandCell, error) {
	opt = opt.fill()
	if err := opt.validate(); err != nil {
		return nil, err
	}

	nMix := len(opt.Mixes)
	nCfg := 2 // NoSvard, Svard
	accs := make([]bandAcc, len(opt.Defenses)*len(opt.NRHs)*nCfg)
	for i := range accs {
		accs[i] = newBandAcc()
	}

	// foldModule consumes one module's results in populationModuleJobs
	// order: baselines first, then (defense, nRH, svard, mix).
	foldModule := func(results []Result) {
		next := nMix
		for i := range accs {
			cell := foldMixes(results[next:next+nMix], results[:nMix])
			next += nMix
			accs[i].violations += cell.Violations
			accs[i].ws.Add(cell.WS)
			accs[i].hs.Add(cell.HS)
			accs[i].ms.Add(cell.MS)
		}
	}

	perModule := nMix * (1 + len(opt.Defenses)*len(opt.NRHs)*nCfg)
	for start := 0; start < opt.Population.Size; start += opt.Chunk {
		end := start + opt.Chunk
		if end > opt.Population.Size {
			end = opt.Population.Size
		}
		var jobs []Job
		for i := start; i < end; i++ {
			jobs = append(jobs, populationModuleJobs(opt, i)...)
		}
		results, err := runJobs(ctx, opt.Workers, opt.Runner, opt.Progress, jobs)
		if err != nil {
			return nil, err
		}
		for i := start; i < end; i++ {
			foldModule(results[(i-start)*perModule : (i-start+1)*perModule])
		}
	}

	cells := make([]BandCell, 0, len(accs))
	acc := 0
	for _, defense := range opt.Defenses {
		for _, nrh := range opt.NRHs {
			for cfgIdx := 0; cfgIdx < nCfg; cfgIdx++ {
				name := BandNoSvard
				if cfgIdx == 1 {
					name = BandSvard
				}
				a := accs[acc]
				acc++
				cells = append(cells, BandCell{
					Defense:    defense,
					NRH:        nrh,
					Config:     name,
					Modules:    a.ws.N(),
					WS:         a.ws.Band(),
					HS:         a.hs.Band(),
					MS:         a.ms.Band(),
					Violations: a.violations,
				})
			}
		}
	}
	return cells, nil
}
