// Package population generates synthetic DRAM module populations for
// Monte Carlo evaluation. The paper's Table 5 characterizes 15 real
// modules; its central claim — that spatial variation across modules
// determines how much a read-disturbance defense gains from per-row
// thresholds — is a claim about the *population* those 15 samples were
// drawn from. This package fits per-manufacturer distributions to the
// Table 5 inventory (HCfirst min / avg / max, BER scale and coefficient
// of variation, scramble depth, spatial character) and samples whole
// profile.ModuleSpecs from the fit, so sweeps can run over thousands of
// synthetic chips and report confidence bands instead of point
// estimates.
//
// Sampling is stable and lazy: module index i of population seed s is a
// pure function of (s, i) through rng.Hash64, so any single module of a
// 10K-chip population is reconstructible on demand — in any order, from
// any worker — without materializing the rest. A sampled module is
// addressed by the label "pop:<seed>:<index>"; internal/sim resolves
// such labels through SpecForLabel wherever a Table 5 label is
// accepted, which is what lets population cells flow through the
// content-addressed result cache and the campaign journal unchanged.
package population

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"svard/internal/profile"
	"svard/internal/rng"
)

// domPopulation namespaces the sampler's rng.Hash64 coordinates against
// every other consumer of the shared hash.
const domPopulation = 0x506f7031 // "Pop1"

const k = 1024

// Ref identifies one synthetic population: Size modules sampled from
// the Table 5 fit by (Seed, index), index in [0, Size).
type Ref struct {
	Seed uint64 `json:"seed"`
	Size int    `json:"size"`
}

// LabelPrefix marks a synthetic population module label.
const LabelPrefix = "pop:"

// Label returns the canonical label of module index of population seed:
// "pop:<seed>:<index>".
func Label(seed uint64, index int) string {
	return LabelPrefix + strconv.FormatUint(seed, 10) + ":" + strconv.Itoa(index)
}

// ParseLabel inverts Label. Only the canonical spelling parses: a
// non-canonical variant ("pop:01:2") would alias the same module under
// a second simulation config, splitting its cache entries.
func ParseLabel(label string) (seed uint64, index int, ok bool) {
	rest, found := strings.CutPrefix(label, LabelPrefix)
	if !found {
		return 0, 0, false
	}
	seedStr, idxStr, found := strings.Cut(rest, ":")
	if !found {
		return 0, 0, false
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	index, err = strconv.Atoi(idxStr)
	if err != nil || index < 0 {
		return 0, 0, false
	}
	if Label(seed, index) != label {
		return 0, 0, false
	}
	return seed, index, true
}

// SpecForLabel resolves a population module label to its sampled spec
// under the default (Table 5) fit. Non-population labels report false.
func SpecForLabel(label string) (profile.ModuleSpec, bool) {
	seed, index, ok := ParseLabel(label)
	if !ok {
		return profile.ModuleSpec{}, false
	}
	return Default().Sample(seed, index), true
}

// LogNormal is a fitted lognormal distribution: Mu and Sigma are the
// mean and standard deviation of ln(x) over the fitted samples.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws one variate from stream r.
func (d LogNormal) Sample(r *rng.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

func fitLogNormal(xs []float64) LogNormal {
	mu := 0.0
	for _, x := range xs {
		mu += math.Log(x)
	}
	mu /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := math.Log(x) - mu
		v += d * d
	}
	// Sample standard deviation (n-1): 5 modules per manufacturer is a
	// small sample, and the biased estimator would understate the very
	// spread the population exists to explore.
	if len(xs) > 1 {
		v /= float64(len(xs) - 1)
	}
	return LogNormal{Mu: mu, Sigma: math.Sqrt(v)}
}

// MfrFit is one manufacturer's fitted generative model. HCfirst is
// parameterized as MinHC plus two ratios (avg/min and max/avg), so every
// sampled module automatically satisfies the ordering calibration
// requires (min < avg <= max); MaxHC is right-censored at 128K hammers
// exactly like the paper's measurement grid.
type MfrFit struct {
	Mfr profile.Manufacturer

	// Carriers are the manufacturer's Table 5 modules. A sampled module
	// draws one uniformly as the donor of its identity (chips, density,
	// die revision, organization, interface speed, bank size) and spatial
	// character (BER period, chunk structure, address-bit structure) —
	// the fields that are categorical per design, not per chip — then
	// overrides the per-chip calibration targets from the fits below.
	Carriers []profile.ModuleSpec

	MinHC    LogNormal // ln of Table 5 min HCfirst
	AvgRatio LogNormal // ln of AvgHC / MinHC
	MaxRatio LogNormal // ln of MaxHC / AvgHC (censored values enter at 128K)
	BER128   LogNormal // ln of the mean per-row BER at 128K hammers
	BERCV    LogNormal // ln of the BER coefficient of variation

	// ScrambleOps is the observed scramble-depth inventory, drawn
	// empirically (Table 5 shows one depth per manufacturer, so today the
	// draw is degenerate; the representation keeps the fit honest if the
	// inventory ever diversifies).
	ScrambleOps []int
}

// Model is a fitted population model over a module inventory.
type Model struct {
	Mfrs []MfrFit
}

// Fit fits the per-manufacturer distributions to a module inventory.
// It errors on an inventory it cannot fit: no modules, or targets that
// violate the orderings the simulator's calibration requires.
func Fit(specs []profile.ModuleSpec) (*Model, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("population: empty module inventory")
	}
	byMfr := make(map[profile.Manufacturer][]profile.ModuleSpec)
	var order []profile.Manufacturer
	for _, s := range specs {
		if s.MinHC <= 0 || s.AvgHC <= s.MinHC || s.MaxHC < s.AvgHC {
			return nil, fmt.Errorf("population: module %s HCfirst targets unordered (min %v, avg %v, max %v)",
				s.Label, s.MinHC, s.AvgHC, s.MaxHC)
		}
		if s.BER128 <= 0 || s.BERCV <= 0 {
			return nil, fmt.Errorf("population: module %s BER targets not positive", s.Label)
		}
		if _, seen := byMfr[s.Mfr]; !seen {
			order = append(order, s.Mfr)
		}
		byMfr[s.Mfr] = append(byMfr[s.Mfr], s)
	}
	m := &Model{}
	for _, mfr := range order {
		mods := byMfr[mfr]
		fit := MfrFit{Mfr: mfr, Carriers: mods}
		var minHC, avgRatio, maxRatio, ber, cv []float64
		for _, s := range mods {
			minHC = append(minHC, s.MinHC)
			avgRatio = append(avgRatio, s.AvgHC/s.MinHC)
			maxRatio = append(maxRatio, s.MaxHC/s.AvgHC)
			ber = append(ber, s.BER128)
			cv = append(cv, s.BERCV)
			fit.ScrambleOps = append(fit.ScrambleOps, s.ScrambleOps)
		}
		fit.MinHC = fitLogNormal(minHC)
		fit.AvgRatio = fitLogNormal(avgRatio)
		fit.MaxRatio = fitLogNormal(maxRatio)
		fit.BER128 = fitLogNormal(ber)
		fit.BERCV = fitLogNormal(cv)
		m.Mfrs = append(m.Mfrs, fit)
	}
	return m, nil
}

var (
	defaultOnce  sync.Once
	defaultModel *Model
)

// Default returns the model fitted to profile.Table5(), computed once
// per process. The inventory is a compiled-in constant the Fit
// invariants are tested against, so failure here is impossible by
// construction (and loud if a future edit breaks it).
func Default() *Model {
	defaultOnce.Do(func() {
		m, err := Fit(profile.Table5())
		if err != nil {
			panic(err)
		}
		defaultModel = m
	})
	return defaultModel
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Sample returns module index of population seed: one synthetic
// ModuleSpec drawn from the fitted per-manufacturer distributions.
//
// The draw is a pure function of (seed, index): each module owns the
// private stream rng.At(domPopulation, seed, index) and consumes a fixed
// sequence from it, so the same coordinates yield the byte-identical
// spec no matter which modules were sampled before, after, or
// concurrently. Manufacturers are drawn with their inventory share as
// weight; all bounded draws use the bias-free rng.UintN.
//
// Sampled calibration targets are clamped into the region the
// disturbance-model calibration (profile.BuildScaled) is solvable in:
// MinHC in [2K, 100K] hammers, avg/min ratio >= 1.25, max/avg ratio
// >= 1.1 with MaxHC right-censored at 128K, BER at 128K in (0, BERSat),
// and a positive BER CV. The clamps sit far outside the fitted mass
// (Table 5 spans 8K..56K minima), so they bound tail samples without
// distorting the distributions.
func (m *Model) Sample(seed uint64, index int) profile.ModuleSpec {
	r := rng.At(domPopulation, seed, uint64(index))

	total := 0
	for i := range m.Mfrs {
		total += len(m.Mfrs[i].Carriers)
	}
	pick := int(r.UintN(uint64(total)))
	fit := &m.Mfrs[0]
	for i := range m.Mfrs {
		if pick < len(m.Mfrs[i].Carriers) {
			fit = &m.Mfrs[i]
			break
		}
		pick -= len(m.Mfrs[i].Carriers)
	}

	spec := fit.Carriers[r.UintN(uint64(len(fit.Carriers)))]
	spec.Struct = append([]profile.StructSpec(nil), spec.Struct...)
	spec.Label = Label(seed, index)
	spec.DateCode = "synth"

	spec.MinHC = clamp(fit.MinHC.Sample(r), 2*k, 100*k)
	avgRatio := fit.AvgRatio.Sample(r)
	if avgRatio < 1.25 {
		avgRatio = 1.25
	}
	spec.AvgHC = spec.MinHC * avgRatio
	if spec.AvgHC > 120*k {
		spec.AvgHC = 120 * k
	}
	maxRatio := fit.MaxRatio.Sample(r)
	if maxRatio < 1.1 {
		maxRatio = 1.1
	}
	spec.MaxHC = spec.AvgHC * maxRatio
	if spec.MaxHC > 128*k {
		spec.MaxHC = 128 * k // right-censored, as in the paper's grid
	}
	spec.BER128 = clamp(fit.BER128.Sample(r), 1e-5, 0.25)
	spec.BERCV = clamp(fit.BERCV.Sample(r), 1e-3, 0.25)
	spec.ScrambleOps = fit.ScrambleOps[r.UintN(uint64(len(fit.ScrambleOps)))]
	return spec
}
