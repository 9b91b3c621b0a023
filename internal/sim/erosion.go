package sim

import (
	"context"
	"fmt"
	"slices"

	"svard/internal/temporal"
)

// The margin-erosion sweep quantifies the gap between the two views of
// the per-row truth (views.go): each defense is configured against the
// calibration-time profile, then attacked under a drifted live truth,
// and the sweep reports how far the defense's violation-free operating
// point moves as the re-calibration interval grows. It is the
// temporal-axis counterpart of Fig. 12: same (defense, nRH, Svärd)
// grid, but the quantity of interest is security margin vs. time
// instead of performance vs. threshold.

// DefaultErosionIntervals are the default re-calibration intervals, in
// epochs of the temporal process: freshly calibrated, moderately stale,
// and badly stale.
func DefaultErosionIntervals() []uint64 { return []uint64{0, 16, 64} }

// ErosionOptions parameterizes the margin-erosion sweep.
type ErosionOptions struct {
	Base Config // sizing knobs; Base.Temporal must be nil (Process owns the axis)

	// Process is the temporal-variation process every drifted leg runs
	// under. Its AgeEpochs must be 0: the sweep owns the age axis and
	// sets it per interval.
	Process temporal.Spec

	// Intervals are the re-calibration intervals to evaluate, in epochs
	// (default DefaultErosionIntervals). Each interval ages the live
	// truth by that many epochs of pre-run drift before the attack
	// starts; 0 evaluates a freshly calibrated defense that still
	// drifts during the run.
	Intervals []uint64

	Mixes    [][]string // workload mixes (default trace.Mixes(4, ...))
	NRHs     []float64  // swept worst-case HCfirst values (default 4K..64)
	Defenses []string   // default all five

	Workers  int    // max concurrent simulations (<= 0: GOMAXPROCS)
	Runner   Runner // per-job executor (nil: PooledRun); see Runner
	Progress func(string)
}

// fill applies the sweep defaults (idempotent, like Fig12Options.fill).
func (opt ErosionOptions) fill() ErosionOptions {
	fillGrid(opt.Base, &opt.Mixes, &opt.NRHs, &opt.Defenses)
	if len(opt.Intervals) == 0 {
		opt.Intervals = DefaultErosionIntervals()
	}
	return opt
}

// validate rejects option combinations the fold cannot give a meaning
// to. Called by ErosionJobs, so every execution path (direct, campaign,
// service) admits or rejects identically.
func (opt ErosionOptions) validate() error {
	if err := opt.Process.Validate(); err != nil {
		return err
	}
	if opt.Process.AgeEpochs != 0 {
		return fmt.Errorf("sim: erosion Process.AgeEpochs must be 0 — the sweep sets the age per interval (got %d)", opt.Process.AgeEpochs)
	}
	if opt.Base.Temporal != nil {
		return fmt.Errorf("sim: erosion Base.Temporal must be nil — the sweep attaches the process itself")
	}
	seen := map[uint64]bool{}
	for _, iv := range opt.Intervals {
		if seen[iv] {
			return fmt.Errorf("sim: duplicate erosion interval %d", iv)
		}
		seen[iv] = true
	}
	return nil
}

// ErosionCell is one row of the margin-erosion report: a (defense,
// configuration, interval) with the smallest violation-free swept nRH
// under the calibration-time truth (CalibNRH) and under the live truth
// aged by Interval epochs (LiveNRH). Shift = LiveNRH/CalibNRH: 1.0
// means the defense's operating point survived the drift, > 1 means the
// margin eroded (the defense now needs a weaker-threshold assumption to
// stay clean), 0 means no swept nRH was violation-free. Violations
// counts the bitflips the drifted truth produces at CalibNRH — the
// operating point the defense was deployed at.
type ErosionCell struct {
	Defense    string
	Config     string // "NoSvard" or "Svard-<module>"
	Interval   uint64 // re-calibration interval, in epochs
	CalibNRH   float64
	LiveNRH    float64
	Shift      float64
	Violations uint64
}

// ErosionJobs expands the sweep into its flat job list, the enumeration
// every execution path shares: first the static legs — one per
// (defense, svard, nRH, mix), with Temporal nil so they are
// byte-identical (and cache-shared) with ordinary Fig. 12 cells — then,
// per interval, the same grid with the process attached at that age.
func ErosionJobs(opt ErosionOptions) ([]Job, error) {
	opt = opt.fill()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	grid := func(spec *temporal.Spec, suffix string) {
		for _, defense := range opt.Defenses {
			for _, svard := range []bool{false, true} {
				for _, nrh := range opt.NRHs {
					for mi := range opt.Mixes {
						cfg := opt.Base
						cfg.Mix = opt.Mixes[mi]
						cfg.Defense = defense
						cfg.NRH = nrh
						cfg.Svard = svard
						cfg.Temporal = spec
						name := "NoSvard"
						if svard {
							name = "Svard-" + cfg.ModuleLabel
						}
						jobs = append(jobs, Job{
							Label:  fmt.Sprintf("erosion %s nRH=%v %s mix %d%s", defense, nrh, name, mi, suffix),
							Config: cfg,
						})
					}
				}
			}
		}
	}
	grid(nil, " [calib]")
	for _, iv := range opt.Intervals {
		spec := opt.Process
		spec.AgeEpochs = iv
		grid(&spec, fmt.Sprintf(" [age=%d]", iv))
	}
	return jobs, nil
}

// RunErosionCtx executes the margin-erosion sweep and returns cells in
// (defense, config, interval) order, with the same contract as
// RunFig12Ctx: results are bit-identical for any Workers value and any
// Runner faithful to Run, and a cancelled sweep returns no cells.
func RunErosionCtx(ctx context.Context, opt ErosionOptions) ([]ErosionCell, error) {
	opt = opt.fill()
	jobs, err := ErosionJobs(opt)
	if err != nil {
		return nil, err
	}
	results, err := runJobs(ctx, opt.Workers, opt.Runner, opt.Progress, jobs)
	if err != nil {
		return nil, err
	}

	// The job list is (1 + len(Intervals)) repetitions of the same
	// (defense, svard, nRH, mix) grid; segment 0 is calibration truth.
	nMix := len(opt.Mixes)
	perGrid := len(opt.Defenses) * 2 * len(opt.NRHs) * nMix
	// violations sums a grid point's bitflips over its mixes.
	violations := func(segment, defIdx, svIdx, nrhIdx int) uint64 {
		base := segment*perGrid + ((defIdx*2+svIdx)*len(opt.NRHs)+nrhIdx)*nMix
		var v uint64
		for mi := 0; mi < nMix; mi++ {
			v += results[base+mi].Violations
		}
		return v
	}
	// cleanNRH finds the smallest swept nRH with zero violations across
	// all mixes in the given segment (0 when no swept value is clean):
	// the weakest worst-case-threshold assumption the defense can be
	// deployed under and still keep the tracker silent.
	cleanNRH := func(segment, defIdx, svIdx int) float64 {
		best := 0.0
		for ni, nrh := range opt.NRHs {
			if violations(segment, defIdx, svIdx, ni) == 0 && (best == 0 || nrh < best) {
				best = nrh
			}
		}
		return best
	}
	var cells []ErosionCell
	for defIdx, defense := range opt.Defenses {
		for svIdx, name := range []string{"NoSvard", "Svard-" + opt.Base.ModuleLabel} {
			calib := cleanNRH(0, defIdx, svIdx)
			for si, iv := range opt.Intervals {
				cell := ErosionCell{
					Defense:  defense,
					Config:   name,
					Interval: iv,
					CalibNRH: calib,
					LiveNRH:  cleanNRH(1+si, defIdx, svIdx),
				}
				if calib > 0 {
					cell.Shift = cell.LiveNRH / calib
					cell.Violations = violations(1+si, defIdx, svIdx, slices.Index(opt.NRHs, calib))
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}
