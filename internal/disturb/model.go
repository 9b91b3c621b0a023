package disturb

import (
	"math"

	"svard/internal/dram"
	"svard/internal/rng"
)

// Hash sub-domains, so distinct fields draw independent randomness from
// one module seed.
const (
	domChunk   = 0x11
	domBank    = 0x12
	domIrr     = 0x13
	domTail    = 0x14
	domWCDP    = 0x15
	domCouple  = 0x16
	domPress   = 0x17
	domAge     = 0x18
	domFlipPos = 0x19
)

// StructKind identifies which spatial feature a structured vulnerability
// term keys on. Structured terms are what make a module's HCfirst
// correlate with address bits (Table 3); modules without them show no
// strong correlation (Takeaway 6).
type StructKind int

// Structured-term kinds.
const (
	RowBit      StructKind = iota // bit of the physical row address
	SubarrayBit                   // bit of the subarray index
	DistanceBit                   // bit of the distance to sense amps
)

// StructTerm shifts ln HCfirst by ±Amp·IrrSigma depending on one spatial
// feature bit (bit set → weaker row).
type StructTerm struct {
	Kind StructKind
	Bit  int
	Amp  float64
}

// Params configures the disturbance model for one module. All log-domain
// amplitudes are natural-log units.
type Params struct {
	Seed uint64

	// Cell threshold population.
	BERSat    float64 // saturating fraction of disturbable cells
	SigmaCell float64 // lognormal spread of per-cell thresholds
	LnHCMid   float64 // mean of ln(median-cell threshold), in double-sided hammers

	// Regular (design-induced + manufacturing) spatial field on hcMid;
	// this is what makes BER vary smoothly with row location (Obsv. 4/5).
	RegAmp       float64 // overall scale of the regular field
	PeriodFrac   float64 // period of the periodic term, as fraction of the bank
	PeriodWeight float64
	ChunkCount   int // number of coarse manufacturing chunks across the bank
	ChunkWeight  float64
	EdgeWeight   float64 // subarray-edge weakening
	EdgeScale    float64 // e-folding distance (rows) of the edge term
	BankJitter   float64 // small per-bank offset (banks look alike, Obsv. 2)

	// Irregular per-row component of HCfirst (Obsv. 9: HCfirst varies
	// irregularly even where BER is regular).
	IrrSigma   float64
	TailWeight float64 // weight of the heavy (Gumbel) low-outlier tail
	Struct     []StructTerm

	// RowPress response (§5.3): effective hammers per activation grow as
	// (tAggOn/PressRefNs)^PressAlpha, with per-row sensitivity spread.
	PressAlpha    float64
	PressRefNs    float64
	PressRowSigma float64

	// Data-pattern coupling (§4.3): the worst-case data pattern couples
	// fully; others lose up to CoupleSpread in log-effective-hammers.
	CoupleSpread float64

	// Temperature sensitivity around the 80°C reference (§4.3: <0.5%
	// BER variation between 50°C and 80°C).
	TempCoeff float64

	// BlastDecay is the fraction of disturbance reaching distance-2
	// victims relative to distance-1 victims.
	BlastDecay float64

	// CapHC, when positive, upper-bounds every row's true HCfirst.
	// Modules whose strongest rows still flip by e.g. 40K or 96K (Table
	// 5's Max column) have a bounded right tail; the cap reproduces it.
	CapHC float64
}

// DefaultParams returns a physically plausible parameter set for seed;
// package profile recalibrates LnHCMid/SigmaCell/RegAmp/IrrSigma per
// module against the paper's Table 5 and Fig. 3 targets.
func DefaultParams(seed uint64) Params {
	return Params{
		Seed:          seed,
		BERSat:        0.3,
		SigmaCell:     0.5,
		LnHCMid:       math.Log(600 * K),
		RegAmp:        0.05,
		PeriodFrac:    0.25,
		PeriodWeight:  1.0,
		ChunkCount:    24,
		ChunkWeight:   0.8,
		EdgeWeight:    0.5,
		EdgeScale:     8,
		BankJitter:    0.004,
		IrrSigma:      0.35,
		TailWeight:    0.25,
		PressAlpha:    0.6,
		PressRefNs:    36,
		PressRowSigma: 0.15,
		CoupleSpread:  0.3,
		TempCoeff:     0.0002,
		BlastDecay:    0.05,
	}
}

// Model is the read disturbance model of one module. It implements
// dram.DisturbSink (see sink.go) and exposes the analytic per-row view.
// A Model is not safe for concurrent mutation; concurrent read-only use
// of the analytic methods is safe.
type Model struct {
	P    Params
	Geom *dram.Geometry

	// TempC is the chip temperature for subsequently accrued
	// disturbance; the reference (and all paper experiments) is 80°C.
	TempC float64
	// AgingDays shifts weak rows' HCfirst down per the Fig. 10 hazard
	// (68 days is the paper's aging interval).
	AgingDays float64

	lift float64 // SigmaCell * z_M, the median→weakest-cell gap

	acc map[accKey]rowDisturb // disturbance state per victim row
}

type accKey struct{ bank, row int }

// NewModel builds a model over geometry geom.
func NewModel(p Params, geom *dram.Geometry) *Model {
	return &Model{P: p, Geom: geom, TempC: 80, acc: make(map[accKey]rowDisturb),
		lift: Lift(geom.CellsPerRow, p.BERSat, p.SigmaCell)}
}

// Lift returns the log-domain gap between a row's median cell threshold
// and its weakest cell threshold for a population of cells·berSat
// disturbable cells with lognormal spread sigmaCell: the expected
// position of the minimum order statistic.
func Lift(cells int, berSat, sigmaCell float64) float64 {
	mEff := float64(cells) * berSat
	if mEff < 2 {
		mEff = 2
	}
	return sigmaCell * phiInv(1-1/mEff)
}

// PhiInv exposes the standard normal quantile for calibration code.
func PhiInv(p float64) float64 { return phiInv(p) }

// SetTemperature sets the chip temperature for subsequently accrued
// disturbance (the testbench's temperature-controller hook).
func (m *Model) SetTemperature(c float64) { m.TempC = c }

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// phiInv is the standard normal quantile function.
func phiInv(p float64) float64 { return math.Sqrt2 * math.Erfinv(2*p-1) }

// Regular returns the regular (smooth) component of the spatial
// vulnerability field at a physical row, roughly standardized to unit
// scale. Negative values mean weaker (lower hcMid).
func (m *Model) Regular(row int) float64 {
	pos := m.Geom.RelativeLocation(row)
	p := &m.P
	var sum, wsum float64
	if p.PeriodWeight > 0 && p.PeriodFrac > 0 {
		sum += p.PeriodWeight * math.Cos(2*math.Pi*pos/p.PeriodFrac)
		wsum += p.PeriodWeight
	}
	if p.ChunkWeight > 0 && p.ChunkCount > 0 {
		x := pos * float64(p.ChunkCount)
		i := int(x)
		frac := x - float64(i)
		a := rng.NormalAt(p.Seed, domChunk, uint64(i))
		b := rng.NormalAt(p.Seed, domChunk, uint64(i+1))
		sum += p.ChunkWeight * (a*(1-frac) + b*frac)
		wsum += p.ChunkWeight
	}
	if p.EdgeWeight > 0 && p.EdgeScale > 0 {
		d := float64(m.Geom.DistanceToSenseAmps(row))
		sum += p.EdgeWeight * -math.Exp(-d/p.EdgeScale)
		wsum += p.EdgeWeight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// RegularRows returns Regular at rows 0, stride, 2·stride, … of a bank:
// the bank-independent input of HCFirstBank, drawn once per module.
func (m *Model) RegularRows(stride int) []float64 {
	reg := make([]float64, (m.Geom.RowsPerBank+stride-1)/stride)
	for i := range reg {
		reg[i] = m.Regular(i * stride)
	}
	return reg
}

// BankTerm returns the bank's offset of ln hcMid: banks look alike up to
// this small jitter (Obsv. 2). LnHCMid adds it only when BankJitter is
// positive.
func (m *Model) BankTerm(bank int) float64 {
	return m.P.BankJitter * rng.NormalAt(m.P.Seed, domBank, uint64(bank))
}

// LnHCMid returns ln of the row's median-cell threshold (in double-sided
// hammers at the reference tAggOn and temperature).
func (m *Model) LnHCMid(bank, row int) float64 {
	return m.lnHCMid(m.Regular(row), m.BankTerm(bank))
}

// lnHCMid composes ln hcMid from the row's regular field reg (Regular)
// and the bank term (BankTerm).
func (m *Model) lnHCMid(reg, bankTerm float64) float64 {
	v := m.P.LnHCMid + m.P.RegAmp*reg
	if m.P.BankJitter > 0 {
		v += bankTerm
	}
	return v
}

// Irregular returns the standardized irregular per-row latent, the part
// of HCfirst variation that spatial features cannot predict (plus any
// structured address-bit terms the module was configured with).
func (m *Model) Irregular(bank, row int) float64 {
	p := &m.P
	z := (1 - p.TailWeight) * rng.NormalAt(p.Seed, domIrr, uint64(bank), uint64(row))
	if p.TailWeight > 0 {
		const eulerGamma = 0.5772156649015329
		g := rng.GumbelAt(p.Seed, domTail, uint64(bank), uint64(row)) - eulerGamma
		z -= p.TailWeight * g // heavy tail toward weak rows
	}
	for _, t := range p.Struct {
		bit := m.structBit(t, row)
		if bit {
			z -= t.Amp
		} else {
			z += t.Amp
		}
	}
	return z
}

func (m *Model) structBit(t StructTerm, row int) bool {
	switch t.Kind {
	case RowBit:
		return row>>t.Bit&1 == 1
	case SubarrayBit:
		return m.Geom.SubarrayOf(row)>>t.Bit&1 == 1
	case DistanceBit:
		return m.Geom.DistanceToSenseAmps(row)>>t.Bit&1 == 1
	default:
		return false
	}
}

// LnHCFirst returns ln of the row's true HCfirst: the number of
// double-sided hammers (at tAggOn = PressRefNs, the worst-case data
// pattern, and 80°C) at which the row's weakest cell flips. Aging is not
// applied here; see HCFirst.
func (m *Model) LnHCFirst(bank, row int) float64 {
	return m.lnHCFirst(m.Regular(row), m.BankTerm(bank), bank, row)
}

func (m *Model) lnHCFirst(reg, bankTerm float64, bank, row int) float64 {
	v := m.lnHCMid(reg, bankTerm) - m.lift + m.P.IrrSigma*m.Irregular(bank, row)
	if m.P.CapHC > 0 {
		if cap := math.Log(m.P.CapHC); v > cap {
			return cap
		}
	}
	return v
}

// HCFirst returns the row's true HCfirst in double-sided hammers,
// including the module's aging state.
func (m *Model) HCFirst(bank, row int) float64 {
	return m.hcFirst(m.Regular(row), m.BankTerm(bank), bank, row)
}

// HCFirstBank writes HCFirst(bank, i·stride) to dst[i] for every entry
// of reg, which holds RegularRows(stride): one bank's rows with the
// bank term drawn once and the regular field drawn once per module
// instead of once per call. It is HCFirst's one composition, so every
// value is bit for bit the point query's.
func (m *Model) HCFirstBank(dst, reg []float64, bank, stride int) {
	dst = dst[:len(reg)]
	off := m.BankTerm(bank)
	for i, r := range reg {
		dst[i] = m.hcFirst(r, off, bank, i*stride)
	}
}

// hcFirst is the one composition of a row's HCfirst: the regular field
// reg of its row, the term of its bank, its irregular latent, and the
// module's aging state.
func (m *Model) hcFirst(reg, bankTerm float64, bank, row int) float64 {
	base := math.Exp(m.lnHCFirst(reg, bankTerm, bank, row))
	if m.AgingDays <= 0 {
		return base
	}
	return m.agedHCFirst(bank, row, base)
}

// BER returns the fraction of the row's cells that flip under eff
// effective double-sided hammers (before pattern coupling). The value is
// the lognormal cell-threshold CDF scaled by the saturating BER.
func (m *Model) BER(bank, row int, eff float64) float64 {
	if eff <= 0 {
		return 0
	}
	return m.P.BERSat * phi((math.Log(eff)-m.LnHCMid(bank, row))/m.P.SigmaCell)
}

// FlipCountAt returns the number of flipped cells after eff effective
// double-sided hammers with the victim holding pattern pat: zero below
// the row's HCfirst, at least one at or above it, following the expected
// count of the cell-threshold population, capped at the cell count.
func (m *Model) FlipCountAt(bank, row int, eff float64, pat dram.Pattern) int {
	effP := eff * m.Couple(bank, row, pat)
	if effP < m.HCFirst(bank, row) {
		return 0
	}
	n := int(math.Round(float64(m.Geom.CellsPerRow) * m.BER(bank, row, effP)))
	if n < 1 {
		n = 1
	}
	if n > m.Geom.CellsPerRow {
		n = m.Geom.CellsPerRow
	}
	return n
}

// WCDP returns the row's worst-case data pattern: the pattern with full
// coupling. The distribution across rows favours the row-stripe family,
// as observed on real chips.
func (m *Model) WCDP(bank, row int) dram.Pattern {
	u := rng.UniformAt(m.P.Seed, domWCDP, uint64(bank), uint64(row))
	switch {
	case u < 0.50:
		return dram.RowStripe
	case u < 0.70:
		return dram.RowStripeInv
	case u < 0.82:
		return dram.Checkerboard
	case u < 0.94:
		return dram.CheckerboardInv
	case u < 0.97:
		return dram.ColStripe
	default:
		return dram.ColStripeInv
	}
}

// Couple returns the pattern-coupling multiplier on effective hammers
// for a victim row holding pattern pat (aggressors holding the inverse):
// 1 for the row's WCDP, less for the others.
func (m *Model) Couple(bank, row int, pat dram.Pattern) float64 {
	if pat == m.WCDP(bank, row) {
		return 1
	}
	u := rng.UniformAt(m.P.Seed, domCouple, uint64(bank), uint64(row), uint64(pat))
	return math.Exp(-m.P.CoupleSpread * (0.2 + 0.8*u))
}

// PressFactor returns the per-activation effective-hammer multiplier for
// an aggressor held open onTimeNs, as experienced by the given victim
// row: 1 at the minimum tRAS, growing sublinearly with on-time (§5.3),
// with per-victim sensitivity spread.
func (m *Model) PressFactor(bank, victimRow int, onTimeNs float64) float64 {
	return m.PressFactorFromPsi(m.PressPsi(bank, victimRow), onTimeNs)
}

// PressPsi returns the victim row's RowPress susceptibility multiplier —
// the row-dependent term of PressFactor. It depends only on the module
// seed and the row, so callers that evaluate PressFactor at high rate
// (the simulator's security tracker) precompute it per row.
func (m *Model) PressPsi(bank, victimRow int) float64 {
	return math.Exp(m.P.PressRowSigma * rng.NormalAt(m.P.Seed, domPress, uint64(bank), uint64(victimRow)))
}

// PressFactorFromPsi is PressFactor with a precomputed PressPsi value.
func (m *Model) PressFactorFromPsi(psi, onTimeNs float64) float64 {
	return PressFactorFromBase(m.PressBase(onTimeNs), psi)
}

// PressBase returns the on-time-dependent term of PressFactor — the
// part shared by every victim of one aggressor closing. Callers that
// account several neighbours per PRE (the simulator's security tracker)
// compute it once per closing instead of once per victim; the pow
// dominates the tracker's per-command cost otherwise.
func (m *Model) PressBase(onTimeNs float64) float64 {
	if onTimeNs <= m.P.PressRefNs {
		return 1
	}
	return math.Pow(onTimeNs/m.P.PressRefNs, m.P.PressAlpha)
}

// PressFactorFromBase combines a PressBase value with a victim's
// PressPsi, completing PressFactorFromPsi's arithmetic bit-exactly.
func PressFactorFromBase(base, psi float64) float64 {
	if base == 1 {
		return 1
	}
	// Only the RowPress excess varies by victim; the RowHammer unit does
	// not, so HCfirst at the reference on-time stays exact.
	return 1 + (base-1)*psi
}

// tempFactor scales effective hammers for the current temperature.
func (m *Model) tempFactor() float64 {
	return 1 + m.P.TempCoeff*(m.TempC-80)
}

// EffectiveHammers returns the analytic effective double-sided hammer
// count for hc hammers at the given aggressor on-time and the model's
// current temperature, before pattern coupling — the quantity the
// accumulator path converges to after hc double-sided hammer pairs.
func (m *Model) EffectiveHammers(bank, row int, hc, onTimeNs float64) float64 {
	return hc * m.PressFactor(bank, row, onTimeNs) * m.tempFactor()
}

// BERAt returns the analytic bit error rate for a double-sided test of
// hc hammers at onTimeNs with the victim holding pattern pat — the
// closed form of what measure_BER (Alg. 1) observes.
func (m *Model) BERAt(bank, row int, hc, onTimeNs float64, pat dram.Pattern) float64 {
	eff := m.EffectiveHammers(bank, row, hc, onTimeNs)
	n := m.FlipCountAt(bank, row, eff, pat)
	return float64(n) / float64(m.Geom.CellsPerRow)
}

// HCFirstAt returns the row's true HCfirst under an arbitrary aggressor
// on-time (RowPress lowers it) and the current temperature, under the
// worst-case data pattern.
func (m *Model) HCFirstAt(bank, row int, onTimeNs float64) float64 {
	return m.HCFirst(bank, row) / (m.PressFactor(bank, row, onTimeNs) * m.tempFactor())
}
