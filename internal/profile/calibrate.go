package profile

import (
	"fmt"
	"math"

	"svard/internal/disturb"
	"svard/internal/dram"
	"svard/internal/exec"
	"svard/internal/rng"
)

// Module is a built, calibrated module: geometry, scrambling, and a
// disturbance parameter set whose per-row HCfirst and BER statistics
// match the module's Table 5 / Fig. 3 targets.
type Module struct {
	Spec   ModuleSpec
	Geom   *dram.Geometry
	Params disturb.Params
	Seed   uint64
}

// NewModel returns a fresh disturbance model for the module. Models are
// cheap; the per-row universe is procedural and shared across instances
// with the same seed.
func (m *Module) NewModel() *disturb.Model {
	return disturb.NewModel(m.Params, m.Geom)
}

// NewMapping returns the module's in-DRAM row scrambling.
func (m *Module) NewMapping() dram.RowMapping {
	if m.Spec.ScrambleOps <= 0 {
		return dram.IdentityMapping{}
	}
	return dram.NewScrambleMapping(m.Seed, m.Geom.RowsPerBank, m.Spec.ScrambleOps)
}

// NewDevice returns a command-level device plus its attached model, as
// the testbench mounts it.
func (m *Module) NewDevice() (*dram.Device, *disturb.Model, error) {
	model := m.NewModel()
	dev, err := dram.NewDevice(m.Geom, dram.DDR4Timing(m.Spec.FreqMTs), m.NewMapping(), model)
	if err != nil {
		return nil, nil, err
	}
	dev.SetSeed(m.Seed)
	return dev, model, nil
}

// Build constructs and calibrates the module at full size (65536 cells
// per row, Table 5 row count).
func Build(spec ModuleSpec, seed uint64) (*Module, error) {
	return BuildScaled(spec, seed, spec.RowsPerBank, 64*K)
}

// BuildScaled constructs and calibrates the module with an overridden
// bank size — tests and the performance simulator use smaller banks,
// with identical calibration logic and targets.
func BuildScaled(spec ModuleSpec, seed uint64, rowsPerBank, cellsPerRow int) (*Module, error) {
	if rowsPerBank < 64 {
		return nil, fmt.Errorf("profile: rowsPerBank %d too small to calibrate", rowsPerBank)
	}
	mseed := rng.Hash64(seed, labelHash(spec.Label))
	geom := &dram.Geometry{
		BankGroups:    4,
		BanksPerGroup: 4,
		RowsPerBank:   rowsPerBank,
		CellsPerRow:   cellsPerRow,
	}
	minSub, maxSub := 330, 1027
	if rowsPerBank < 4*maxSub {
		// Scaled-down banks keep several subarrays.
		minSub, maxSub = rowsPerBank/12+2, rowsPerBank/6+4
	}
	geom.BuildSubarrays(mseed, minSub, maxSub)

	p := disturb.DefaultParams(mseed)
	p.PeriodFrac = spec.PeriodFrac
	p.ChunkCount = spec.ChunkCount
	p.ChunkWeight = spec.ChunkWeight
	p.Struct = spec.Struct
	if spec.MaxHC < 128*K {
		p.CapHC = spec.MaxHC * 0.99
	}

	cal, err := calibrate(spec, p, geom)
	if err != nil {
		return nil, err
	}
	return &Module{Spec: spec, Geom: geom, Params: cal, Seed: mseed}, nil
}

func labelHash(label string) uint64 {
	h := uint64(0)
	for _, c := range label {
		h = h*131 + uint64(c)
	}
	return h
}

// calibrate solves the model parameters against the module targets:
//
//	mean BER at 128K hammers  -> couples LnHCMid and SigmaCell,
//	mean quantized HCfirst    -> closes the LnHCMid/SigmaCell system,
//	CV of BER across rows     -> RegAmp,
//	min quantized HCfirst     -> IrrSigma (bisection on the sampled
//	                             latent fields, so the achieved min is
//	                             exact for the tested banks).
func calibrate(spec ModuleSpec, p disturb.Params, geom *dram.Geometry) (disturb.Params, error) {
	if spec.BER128 <= 0 || spec.BER128 >= p.BERSat {
		return p, fmt.Errorf("profile: %s BER128 %v outside (0, BERSat)", spec.Label, spec.BER128)
	}
	if spec.MinHC <= 0 || spec.AvgHC <= spec.MinHC {
		return p, fmt.Errorf("profile: %s HCfirst targets inconsistent", spec.Label)
	}

	banks := TestedBanks()
	probe := disturb.NewModel(p, geom)
	rows := geom.RowsPerBank

	// Sample the latent fields once; calibration then works on arrays:
	// the regular field per row, the bank term per tested bank and the
	// irregular latent per (bank, row), row-major, the banks in
	// parallel. buf is the one scratch table of the whole calibration.
	reg := probe.RegularRows(1)
	offs := make([]float64, len(banks))
	irr := make([]float64, len(banks)*rows)
	buf := make([]float64, len(irr))
	if _, err := exec.Map(0, len(banks), func(i int) (struct{}, error) {
		offs[i] = probe.BankTerm(banks[i])
		z := irr[i*rows : (i+1)*rows]
		for row := range z {
			z[row] = probe.Irregular(banks[i], row)
		}
		return struct{}{}, nil
	}); err != nil {
		return p, err
	}
	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	stdOf := func(xs []float64) float64 {
		m := meanOf(xs)
		s := 0.0
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		return math.Sqrt(s / float64(len(xs)))
	}
	meanReg, stdReg := meanOf(reg), stdOf(reg)
	meanIrr := meanOf(irr)
	// The mean bank term over every (bank, row) sample, summed in
	// sample order.
	offSum := 0.0
	for _, off := range offs {
		for row := 0; row < rows; row++ {
			offSum += off
		}
	}
	meanOff := offSum / float64(len(irr))

	const hc128 = 128 * K
	x := disturb.PhiInv(spec.BER128 / p.BERSat) // standardized BER@128K position
	zM := disturb.Lift(geom.CellsPerRow, p.BERSat, 1)
	pdfX := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)

	// Continuous targets: quantization to the 14-level grid raises the
	// reported average and the reported minimum sits one bin above the
	// true value, so aim slightly below the Table 5 numbers. The average
	// gets a correction iteration below.
	avgTc := spec.AvgHC * 0.93
	minTc := spec.MinHC * 0.93

	levels := disturb.HammerLevels()
	var out disturb.Params
	for iter := 0; iter < 3; iter++ {
		rm := 0.0 // mean of the non-constant latent terms, refined per pass
		var sigmaCell, lnHCMid, regAmp, irrSigma float64
		for pass := 0; pass < 3; pass++ {
			sigmaCell = (math.Log(hc128) + rm - math.Log(avgTc)) / (x + zM)
			if sigmaCell <= 0.05 {
				sigmaCell = 0.05
			}
			lnHCMid = math.Log(hc128) - sigmaCell*x
			lift := disturb.Lift(geom.CellsPerRow, p.BERSat, sigmaCell)

			// RegAmp from the BER CV target: relative BER sensitivity to
			// the regular field is pdf(x)/Phi(x) per unit of lnHCMid/sigma.
			regAmp = spec.BERCV * (spec.BER128 / p.BERSat) / pdfX * sigmaCell
			if stdReg > 0 {
				regAmp /= stdReg
			}

			// IrrSigma: bisect so the sampled minimum hits the target.
			target := math.Log(minTc) - lnHCMid + lift
			irrSigma = bisectMin(buf, reg, offs, irr, regAmp, target)

			rm = regAmp*meanReg + meanOff + irrSigma*meanIrr
		}

		out = p
		out.SigmaCell = sigmaCell
		out.LnHCMid = lnHCMid
		out.RegAmp = regAmp
		out.IrrSigma = irrSigma

		// Correct the continuous average so the *quantized* average hits
		// the Table 5 value (censored rows count as 128K, as in the paper):
		// the banks quantize in parallel, the sum runs in (bank, row)
		// order.
		model := disturb.NewModel(out, geom)
		if _, err := exec.Map(0, len(banks), func(i int) (struct{}, error) {
			qs := buf[i*rows : (i+1)*rows]
			model.HCFirstBank(qs, reg, banks[i], 1)
			for row, hc := range qs {
				q, ok := disturb.Quantize(levels, hc)
				if !ok {
					q = 128 * K
				}
				qs[row] = q
			}
			return struct{}{}, nil
		}); err != nil {
			return p, err
		}
		sum := 0.0
		for _, q := range buf {
			sum += q
		}
		qAvg := sum / float64(len(buf))
		adj := spec.AvgHC / qAvg
		if math.Abs(adj-1) < 0.01 {
			break
		}
		avgTc *= adj
	}
	return out, nil
}

// bisectMin finds s >= 0 such that
// min over samples of (regAmp·reg[row] + offs[bank] + s·irr[i]) = target,
// where i indexes (bank, row) pairs row-major. The minimum is monotone
// non-increasing in s, and target is below the s=0 minimum in all
// calibrated modules. base, as long as irr, is scratch: it holds the
// s-independent regAmp·reg[row] + offs[bank] of every sample, summed
// once instead of once per probe of s.
func bisectMin(base, reg, offs, irr []float64, regAmp, target float64) float64 {
	rows := len(reg)
	for b, off := range offs {
		for row, r := range reg {
			base[b*rows+row] = regAmp*r + off
		}
	}
	irr = irr[:len(base)]
	minAt := func(s float64) float64 {
		m := math.Inf(1)
		for i, c := range base {
			if v := c + s*irr[i]; v < m {
				m = v
			}
		}
		return m
	}
	lo, hi := 0.0, 0.25
	for minAt(hi) > target {
		hi *= 2
		if hi > 64 {
			break
		}
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if minAt(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
