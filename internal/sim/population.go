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

	Workers int    // max concurrent simulations (<= 0: GOMAXPROCS)
	Runner  Runner // per-job executor (nil: PooledRun); see Runner
}

// fill applies the sweep defaults (idempotent).
func (opt PopulationOptions) fill() PopulationOptions {
	fillGrid(opt.Base, &opt.Mixes, &opt.NRHs, &opt.Defenses)
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

// PopulationJobs expands the sweep into its flat, module-major job list.
// A sampled chip is just one more profile label, so each module's share
// IS the single-profile Fig. 12 expansion: the defense-free baseline per
// mix, then one job per (defense, nRH, svard, mix) — the order Fold
// consumes results in.
func PopulationJobs(opt PopulationOptions) ([]Job, error) {
	opt = opt.fill()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, opt.Population.Size*len(opt.Mixes)*(1+len(opt.Defenses)*len(opt.NRHs)*2))
	for i := 0; i < opt.Population.Size; i++ {
		jobs = append(jobs, Fig12Jobs(Fig12Options{
			Base:     opt.Base,
			Mixes:    opt.Mixes,
			NRHs:     opt.NRHs,
			Defenses: opt.Defenses,
			Profiles: []string{population.Label(opt.Population.Seed, i)},
		})...)
	}
	return jobs, nil
}

// bandValues collects one (defense, nRH, config) cell's per-module
// metrics, in module order, for population.BandOf.
type bandValues struct {
	ws, hs, ms []float64
	violations uint64
}

// RunPopulationCtx executes the Monte Carlo sweep and returns band
// cells in (defense, nRH, config) order — the population analogue of
// RunFig12Ctx's point estimates: PopulationJobs, RunJobs, Fold, under
// RunFig12Ctx's contract. Bands are bit-identical for any Workers value
// and for any Runner faithful to Run — in particular the campaign
// engine's caching runner, cold, warm, or mid-resume.
//
// The whole job list runs in one pass, so the sweep holds one Result
// per cell; the module cache keeps at most maxResidentPopModules
// calibrated modules, evicting the oldest as new ones are built.
func RunPopulationCtx(ctx context.Context, opt PopulationOptions) ([]BandCell, error) {
	jobs, err := PopulationJobs(opt)
	if err != nil {
		return nil, err
	}
	results, err := RunJobs(ctx, opt.Workers, opt.Runner, jobs)
	if err != nil {
		return nil, err
	}
	return opt.Fold(results), nil
}

// Fold folds the results of PopulationJobs(opt), in job order, into the
// band cells: each module's per-mix results fold into its three
// per-config metrics (weighted/harmonic speedup and max slowdown against
// the module's own no-defense baseline, averaged over mixes, exactly like
// Fig. 12's fold), and each cell's per-module metrics summarize into
// exact bands (population.BandOf).
func (opt PopulationOptions) Fold(results []Result) []BandCell {
	opt = opt.fill()
	nMix := len(opt.Mixes)
	nCfg := 2 // NoSvard, Svard
	size := opt.Population.Size
	vals := make([]bandValues, len(opt.Defenses)*len(opt.NRHs)*nCfg)
	for i := range vals {
		vals[i] = bandValues{
			ws: make([]float64, 0, size),
			hs: make([]float64, 0, size),
			ms: make([]float64, 0, size),
		}
	}

	// Each module's share, in PopulationJobs order: baselines first, then
	// (defense, nRH, svard, mix).
	perModule := nMix * (1 + len(opt.Defenses)*len(opt.NRHs)*nCfg)
	for m := 0; m < size; m++ {
		module := results[m*perModule:]
		next := nMix
		for i := range vals {
			cell := foldMixes(module[next:next+nMix], module[:nMix])
			next += nMix
			v := &vals[i]
			v.violations += cell.Violations
			v.ws = append(v.ws, cell.WS)
			v.hs = append(v.hs, cell.HS)
			v.ms = append(v.ms, cell.MS)
		}
	}

	cells := make([]BandCell, 0, len(vals))
	i := 0
	for _, defense := range opt.Defenses {
		for _, nrh := range opt.NRHs {
			for cfgIdx := 0; cfgIdx < nCfg; cfgIdx++ {
				name := BandNoSvard
				if cfgIdx == 1 {
					name = BandSvard
				}
				v := vals[i]
				i++
				cells = append(cells, BandCell{
					Defense:    defense,
					NRH:        nrh,
					Config:     name,
					Modules:    len(v.ws),
					WS:         population.BandOf(v.ws),
					HS:         population.BandOf(v.hs),
					MS:         population.BandOf(v.ms),
					Violations: v.violations,
				})
			}
		}
	}
	return cells
}
