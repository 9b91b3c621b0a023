// Package temporal models per-row HCfirst as a stochastic process in
// time. The paper's defenses are all configured against a
// calibration-time vulnerability profile, but Olgun et al. ("Variable
// Read Disturbance", arXiv:2502.13075) show that a row's HCfirst is not
// a constant: it drifts with aging and dips transiently, so a defense
// that was safe when calibrated can silently lose margin by attack
// time.
//
// The process is deliberately simple and fully deterministic: in log
// space, a row's disturbance threshold performs a Gaussian random walk
// with per-epoch drift Mu and step deviation Sigma (so the per-epoch
// multiplicative factor is lognormal, consistent with the lognormal
// per-row HCfirst model in package disturb), plus memoryless transient
// dips that last exactly one epoch. Every random draw is a stateless
// coordinate hash (internal/rng) of (seed, bank, row, epoch), so any
// row's entire trajectory is a pure function of its coordinates:
// trajectories can be sampled lazily, in any order, from any worker,
// without materializing state for the whole device — and two runs with
// the same seed see the identical drifted truth.
//
// Calibration age is folded in closed form: the accumulated walk over
// AgeEpochs pre-run epochs is N(Mu*A, Sigma^2*A) in log space, which is
// exactly the distribution of summing A independent steps, so sampling
// it as one scaled normal keeps the law of the process while making a
// 10K-epoch-old profile as cheap as a fresh one.
package temporal

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"svard/internal/rng"
)

// Spec declares one temporal-variation process. The zero value is not a
// valid process (Validate rejects EpochCycles == 0); the absence of a
// process is represented by the absence of the Spec (sim.Config.Temporal
// is nil), which keeps every static configuration's cache key and
// campaign fingerprint untouched.
type Spec struct {
	// EpochCycles is the epoch length in CPU cycles: the granularity at
	// which the live per-row truth is resampled. Must be > 0.
	EpochCycles uint64 `json:"epoch_cycles"`

	// Drift is the per-epoch log-space drift mu: negative values weaken
	// rows over time (HCfirst decays), positive values strengthen them.
	Drift float64 `json:"drift,omitempty"`

	// Sigma is the per-epoch log-space step deviation (>= 0): each
	// epoch multiplies a row's HCfirst by an independent
	// Lognormal(Drift, Sigma^2) factor.
	Sigma float64 `json:"sigma,omitempty"`

	// DipP is the per-(row, epoch) probability of a transient dip
	// ([0, 1]): for that one epoch the row's HCfirst is additionally
	// multiplied by DipFactor, then recovers.
	DipP float64 `json:"dip_p,omitempty"`

	// DipFactor is the transient dip multiplier, in (0, 1]. Required
	// when DipP > 0.
	DipFactor float64 `json:"dip_factor,omitempty"`

	// AgeEpochs is the re-calibration interval: how many epochs of
	// drift elapsed between calibration and the start of the run. 0
	// means the defense was calibrated at run start.
	AgeEpochs uint64 `json:"age_epochs,omitempty"`
}

// driftBound caps |Drift| and Sigma: per-epoch log steps past this are
// physically meaningless (a single epoch changing HCfirst by more than
// e^8 ~ 3000x) and, compounded over many epochs, push exp() into
// overflow. Rejecting them at admission keeps every downstream float
// finite for any realistic epoch count.
const driftBound = 8

// Validate rejects a spec no simulation should ever see: zero epoch
// length, negative or non-finite sigma, dip probability outside [0, 1],
// and a dip without a factor. It is called at all three admission
// layers (sim.Config.Validate, campaign.Spec.Validate, the campaign
// service's submit path), so a malformed process is a descriptive error
// — HTTP 400 at the service — never a panic inside a worker.
func (s *Spec) Validate() error {
	if s.EpochCycles == 0 {
		return fmt.Errorf("temporal: epoch length must be > 0 cycles")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"drift", s.Drift}, {"sigma", s.Sigma}, {"dip_p", s.DipP}, {"dip_factor", s.DipFactor}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("temporal: %s must be finite, got %v", f.name, f.v)
		}
	}
	if s.Sigma < 0 {
		return fmt.Errorf("temporal: sigma must be >= 0, got %v", s.Sigma)
	}
	if s.Sigma > driftBound {
		return fmt.Errorf("temporal: sigma %v implausibly large (max %d)", s.Sigma, driftBound)
	}
	if math.Abs(s.Drift) > driftBound {
		return fmt.Errorf("temporal: |drift| %v implausibly large (max %d)", s.Drift, driftBound)
	}
	if s.DipP < 0 || s.DipP > 1 {
		return fmt.Errorf("temporal: dip probability must be in [0, 1], got %v", s.DipP)
	}
	if s.DipP > 0 && (s.DipFactor <= 0 || s.DipFactor > 1) {
		return fmt.Errorf("temporal: dip factor must be in (0, 1] when dip_p > 0, got %v", s.DipFactor)
	}
	if s.DipP == 0 && s.DipFactor != 0 && (s.DipFactor <= 0 || s.DipFactor > 1) {
		return fmt.Errorf("temporal: dip factor must be in (0, 1], got %v", s.DipFactor)
	}
	return nil
}

// String renders the spec in ParseSpec's syntax (round-trips through
// ParseSpec for any valid spec).
func (s Spec) String() string {
	parts := []string{fmt.Sprintf("epoch=%d", s.EpochCycles)}
	if s.Drift != 0 {
		parts = append(parts, fmt.Sprintf("drift=%v", s.Drift))
	}
	if s.Sigma != 0 {
		parts = append(parts, fmt.Sprintf("sigma=%v", s.Sigma))
	}
	if s.DipP != 0 {
		parts = append(parts, fmt.Sprintf("dip=%v", s.DipP))
	}
	if s.DipFactor != 0 {
		parts = append(parts, fmt.Sprintf("dipfactor=%v", s.DipFactor))
	}
	if s.AgeEpochs != 0 {
		parts = append(parts, fmt.Sprintf("age=%d", s.AgeEpochs))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated key=value syntax of the
// -temporal flag, e.g.
//
//	epoch=65536,drift=-0.05,sigma=0.1,dip=0.01,dipfactor=0.5,age=64
//
// Keys: epoch (cycles, required), drift, sigma, dip (probability),
// dipfactor (defaults to 0.5 when dip > 0 and unset), age (epochs).
// The returned spec is validated; malformed input is an error, never a
// panic (FuzzParseSpec enforces it).
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return Spec{}, fmt.Errorf("temporal: empty spec (need at least epoch=N)")
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Spec{}, fmt.Errorf("temporal: empty entry in spec %q", s)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("temporal: entry %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if seen[k] {
			return Spec{}, fmt.Errorf("temporal: duplicate key %q", k)
		}
		seen[k] = true
		var err error
		switch k {
		case "epoch":
			spec.EpochCycles, err = strconv.ParseUint(v, 10, 64)
		case "drift":
			spec.Drift, err = strconv.ParseFloat(v, 64)
		case "sigma":
			spec.Sigma, err = strconv.ParseFloat(v, 64)
		case "dip":
			spec.DipP, err = strconv.ParseFloat(v, 64)
		case "dipfactor":
			spec.DipFactor, err = strconv.ParseFloat(v, 64)
		case "age":
			spec.AgeEpochs, err = strconv.ParseUint(v, 10, 64)
		default:
			keys := []string{"age", "dip", "dipfactor", "drift", "epoch", "sigma"}
			sort.Strings(keys)
			return Spec{}, fmt.Errorf("temporal: unknown key %q (have %s)", k, strings.Join(keys, ", "))
		}
		if err != nil {
			return Spec{}, fmt.Errorf("temporal: %s: %v", k, err)
		}
	}
	if spec.DipP > 0 && !seen["dipfactor"] {
		spec.DipFactor = 0.5
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Coordinate-space tags that keep the process's three draw families
// (pre-run age, in-run steps, transient dips) on independent hash
// streams, decorrelated from every other consumer of the run seed.
const (
	coordAge  = 0x7e4d0a11a6e0b001
	coordStep = 0x7e4d0a11a6e0b002
	coordDip  = 0x7e4d0a11a6e0b003
)

// Process is a spec bound to a run seed: the pure function from
// (bank, row, epoch) to the row's live HCfirst multiplier. The zero
// value is inert (Factor would walk zero epochs of a zero-drift spec);
// build one with NewProcess. Process is a small value type — copying it
// is free and it holds no per-row state, so it is trivially safe for
// concurrent use.
type Process struct {
	spec Spec
	seed uint64
}

// NewProcess binds spec to a run seed. The caller is expected to have
// validated the spec.
func NewProcess(spec Spec, seed uint64) Process {
	return Process{spec: spec, seed: seed}
}

// Spec returns the process's spec.
func (p Process) Spec() Spec { return p.spec }

// Factor returns the multiplier the process applies to (bank, row)'s
// calibration-time HCfirst at in-run epoch number `epoch` (0 = the
// epoch the run starts in). It is a pure function of
// (seed, bank, row, epoch):
//
//	log F = walk(AgeEpochs) + sum_{e=1..epoch} step_e + dip_e
//
// where walk(A) ~ N(Drift*A, Sigma^2*A) is the closed-form accumulated
// pre-run walk, each step_e ~ N(Drift, Sigma^2) is an independent
// coordinate-hashed draw, and dip_e multiplies by DipFactor with
// probability DipP for exactly that epoch. Cost is O(epoch) per call.
// internal/sim's live view keeps that off the hot path in two steps: it
// first tests a row's accrual against FactorFloor — one value per epoch,
// no draw — and only a row that reaches it pays for a Factor, memoized
// for the rest of the epoch.
func (p Process) Factor(bank, row int, epoch uint64) float64 {
	s := p.spec
	logf := 0.0
	if a := s.AgeEpochs; a > 0 {
		fa := float64(a)
		logf = s.Drift*fa + s.Sigma*math.Sqrt(fa)*rng.NormalAt(p.seed, coordAge, uint64(bank), uint64(row))
	}
	for e := uint64(1); e <= epoch; e++ {
		logf += s.Drift + s.Sigma*rng.NormalAt(p.seed, coordStep, uint64(bank), uint64(row), e)
	}
	f := math.Exp(logf)
	if s.DipP > 0 && rng.UniformAt(p.seed, coordDip, uint64(bank), uint64(row), s.AgeEpochs+epoch) < s.DipP {
		f *= s.DipFactor
	}
	return f
}

// FactorFloor returns a value no row's Factor is below at in-run epoch
// `epoch`: whatever (bank, row) drew, Factor(bank, row, epoch) >=
// FactorFloor(epoch). A caller comparing against calibration x Factor
// can settle "not reached" against calibration x FactorFloor without
// drawing (internal/sim's security tracker does).
//
// It is Factor's law with every random term at its worst: the drift
// exactly, the age draw and each of the epoch's steps at
// -rng.NormalAtBound, the dip taken whenever the spec has one:
//
//	log F >= Drift*(A+n) - Sigma*NormalAtBound*(sqrt(A)+n)
//
// less a slack for the roundings of Factor's own n+1-term sum — at most
// (n+O(1))*2^-53 of the terms' total magnitude T; the floor gives up
// 2^-40 of (1+T) per term, thousands of times that, the 1 covering the
// two exps. TestFactorFloorIsALowerBound and FuzzFactorFloor hold it to
// Factor over everything Validate admits.
//
// The floor decays like exp(-(|Drift| + 8.57*Sigma)*epoch): a process
// with a large Sigma, or a run many epochs long, gets a floor too low to
// settle anything (0 once it leaves the normal range, where exp's
// rounding is no longer relative) and every comparison pays for Factor
// again — slower, never different.
func (p Process) FactorFloor(epoch uint64) float64 {
	s := p.spec
	a, n := float64(s.AgeEpochs), float64(epoch)
	reach := s.Sigma * rng.NormalAtBound * (math.Sqrt(a) + n)
	drift := s.Drift * (a + n)
	logf := drift - reach - (n+16)*0x1p-40*(1+math.Abs(drift)+reach)
	if logf < minNormalLog {
		return 0
	}
	f := math.Exp(logf)
	if s.DipP > 0 {
		f *= s.DipFactor
	}
	return f
}

// minNormalLog is just above ln(2^-1022): exp of anything not below it
// is a normal float64.
const minNormalLog = -708
