// Package charz computes the data behind the paper's characterization
// tables and figures (Table 5, Figs. 3-10) from calibrated modules.
// The computations use the analytic view of the disturbance model —
// which tests prove equal to command-level hammering through the
// testbench — so full banks can be swept in seconds rather than weeks.
package charz

import (
	"math"

	"svard/internal/disturb"
	"svard/internal/profile"
	"svard/internal/reveng"
	"svard/internal/rng"
	"svard/internal/stats"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X, Y float64
}

// censoredLevel reports rows that never flip as the top tested level,
// matching Table 5's reporting convention.
func censoredLevel(levels []float64, hc float64) float64 {
	if q, ok := disturb.Quantize(levels, hc); ok {
		return q
	}
	return levels[len(levels)-1]
}

// Table5Row is one measured row of Table 5.
type Table5Row struct {
	Label        string
	Mfr          string
	Chips        int
	DensityGb    int
	DieRev       string
	Org          int
	FreqMTs      int
	DateCode     string
	RowsPerBank  int
	MinHC, AvgHC float64
	MaxHC        float64
}

// Table5 measures a built module's HCfirst statistics over the tested
// banks, with rows sampled at the given stride (1 = every row).
func Table5(m *profile.Module, stride int) Table5Row {
	model := m.NewModel()
	levels := disturb.HammerLevels()
	reg := model.RegularRows(stride)
	hcs := make([]float64, len(reg))
	minV, maxV, sum, n := math.Inf(1), 0.0, 0.0, 0
	for _, b := range profile.TestedBanks() {
		model.HCFirstBank(hcs, reg, b, stride)
		for _, hc := range hcs {
			q := censoredLevel(levels, hc)
			if q < minV {
				minV = q
			}
			if q > maxV {
				maxV = q
			}
			sum += q
			n++
		}
	}
	return Table5Row{
		Label: m.Spec.Label, Mfr: string(m.Spec.Mfr), Chips: m.Spec.Chips,
		DensityGb: m.Spec.DensityGb, DieRev: m.Spec.DieRev, Org: m.Spec.Org,
		FreqMTs: m.Spec.FreqMTs, DateCode: m.Spec.DateCode,
		RowsPerBank: m.Spec.RowsPerBank,
		MinHC:       minV, AvgHC: sum / float64(n), MaxHC: maxV,
	}
}

// Fig3Bank is one box of Fig. 3: the BER distribution of one bank.
type Fig3Bank struct {
	Bank    int
	Summary stats.Summary
}

// Fig3Data is one module's subplot of Fig. 3.
type Fig3Data struct {
	Label string
	Banks []Fig3Bank
	CV    float64 // across all rows and banks
}

// Fig3 computes the per-bank BER distributions at HC=128K, tAggOn=36ns.
func Fig3(m *profile.Module, stride int) Fig3Data {
	model := m.NewModel()
	out := Fig3Data{Label: m.Spec.Label}
	var all []float64
	for _, b := range profile.TestedBanks() {
		var bers []float64
		for row := 0; row < m.Geom.RowsPerBank; row += stride {
			ber := model.BER(b, row, 128*1024)
			bers = append(bers, ber)
			all = append(all, ber)
		}
		out.Banks = append(out.Banks, Fig3Bank{Bank: b, Summary: stats.Summarize(bers)})
	}
	out.CV = stats.Summarize(all).CV()
	return out
}

// Fig4 returns BER vs relative row location, normalized to the minimum
// BER across all tested rows (y-axis of Fig. 4), with the min/max shade
// across banks.
type Fig4Point struct {
	Loc            float64
	Norm           float64 // mean across banks
	NormLo, NormHi float64
}

// Fig4 samples the normalized-BER curve at `points` locations.
func Fig4(m *profile.Module, points int) []Fig4Point {
	model := m.NewModel()
	banks := profile.TestedBanks()
	minBER := math.Inf(1)
	rows := m.Geom.RowsPerBank
	step := rows / points
	if step < 1 {
		step = 1
	}
	type cell struct{ sum, lo, hi float64 }
	cells := make([]cell, 0, points)
	var locs []float64
	for row := 0; row < rows; row += step {
		c := cell{lo: math.Inf(1), hi: math.Inf(-1)}
		for _, b := range banks {
			ber := model.BER(b, row, 128*1024)
			c.sum += ber
			if ber < c.lo {
				c.lo = ber
			}
			if ber > c.hi {
				c.hi = ber
			}
			if ber < minBER && ber > 0 {
				minBER = ber
			}
		}
		cells = append(cells, c)
		locs = append(locs, m.Geom.RelativeLocation(row))
	}
	out := make([]Fig4Point, len(cells))
	for i, c := range cells {
		out[i] = Fig4Point{
			Loc:    locs[i],
			Norm:   c.sum / float64(len(banks)) / minBER,
			NormLo: c.lo / minBER,
			NormHi: c.hi / minBER,
		}
	}
	return out
}

// Fig5Level is one histogram bar of Fig. 5 with its across-banks span.
type Fig5Level struct {
	Level          float64
	Frac           float64
	FracLo, FracHi float64
}

// Fig5 computes the HCfirst distribution across rows (censored rows
// report the top level).
func Fig5(m *profile.Module, stride int) []Fig5Level {
	model := m.NewModel()
	levels := disturb.HammerLevels()
	banks := profile.TestedBanks()
	reg := model.RegularRows(stride)
	qs := make([]float64, len(reg))
	perBank := make([][]float64, len(banks))
	for bi, b := range banks {
		model.HCFirstBank(qs, reg, b, stride)
		for i, hc := range qs {
			qs[i] = censoredLevel(levels, hc)
		}
		perBank[bi] = stats.HistogramDiscrete(qs, levels).Fractions()
	}
	out := make([]Fig5Level, len(levels))
	for li, l := range levels {
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for bi := range banks {
			f := perBank[bi][li]
			sum += f
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		out[li] = Fig5Level{Level: l, Frac: sum / float64(len(banks)), FracLo: lo, FracHi: hi}
	}
	return out
}

// Fig6 returns HCfirst (normalized to the module minimum) vs relative
// row location samples — the scatter whose irregularity is Takeaway 4.
func Fig6(m *profile.Module, points int) []Point {
	model := m.NewModel()
	levels := disturb.HammerLevels()
	bank := profile.TestedBanks()[0]
	rows := m.Geom.RowsPerBank
	step := rows / points
	if step < 1 {
		step = 1
	}
	minHC := math.Inf(1)
	var qs []float64
	var locs []float64
	for row := 0; row < rows; row += step {
		q := censoredLevel(levels, model.HCFirst(bank, row))
		qs = append(qs, q)
		locs = append(locs, m.Geom.RelativeLocation(row))
		if q < minHC {
			minHC = q
		}
	}
	out := make([]Point, len(qs))
	for i := range qs {
		out[i] = Point{X: locs[i], Y: qs[i] / minHC}
	}
	return out
}

// Fig7Box is the HCfirst distribution at one aggressor on-time.
type Fig7Box struct {
	TAggOnNs float64
	Summary  stats.Summary
	CV       float64
}

// Fig7 computes the RowPress effect: HCfirst distributions at the three
// tested on-times.
func Fig7(m *profile.Module, stride int) []Fig7Box {
	model := m.NewModel()
	banks := profile.TestedBanks()
	var out []Fig7Box
	for _, t := range []float64{36, 500, 2000} {
		var hcs []float64
		for _, b := range banks {
			for row := 0; row < m.Geom.RowsPerBank; row += stride {
				hcs = append(hcs, model.HCFirstAt(b, row, t))
			}
		}
		s := stats.Summarize(hcs)
		out = append(out, Fig7Box{TAggOnNs: t, Summary: s, CV: s.CV()})
	}
	return out
}

// Fig8Data is the silhouette sweep of the subarray clustering.
type Fig8Data struct {
	Curve  []reveng.SilhouettePoint
	BestK  int
	TruthK int
}

// Fig8 runs the subarray-count estimation on analytic footprints,
// sweeping k around the true count.
func Fig8(m *profile.Module, span int) Fig8Data {
	fp := reveng.AnalyticFootprints(m.Geom)
	truth := m.Geom.Subarrays()
	var ks []int
	lo := truth - span
	if lo < 2 {
		lo = 2
	}
	for k := lo; k <= truth+span; k++ {
		ks = append(ks, k)
	}
	curve, best := reveng.SubarraySilhouetteSweep(fp, ks, rng.Hash64(m.Seed, 0xF18))
	return Fig8Data{Curve: curve, BestK: best, TruthK: truth}
}

// Fig9Data holds the feature-correlation outputs: the Fig. 9 curve and
// Table 3's strong features.
type Fig9Data struct {
	Label      string
	Thresholds []float64
	Fraction   []float64
	Strong     []reveng.FeatureScore // F1 > 0.7 (Table 3)
	MaxF1      float64
}

// Fig9 scores every spatial feature of the module against measured
// HCfirst levels.
func Fig9(m *profile.Module) Fig9Data {
	model := m.NewModel()
	levels := disturb.HammerLevels()
	levelOf := func(bank, row int) int {
		return disturb.LevelIndex(levels, model.HCFirst(bank, row))
	}
	scores := reveng.ScoreFeatures(m.Geom, profile.TestedBanks(), levelOf, len(levels), reveng.AllFeatures(m.Geom))
	var ths []float64
	for t := 0.0; t <= 1.0001; t += 0.1 {
		ths = append(ths, t)
	}
	maxF1 := 0.0
	for _, s := range scores {
		if s.F1 > maxF1 {
			maxF1 = s.F1
		}
	}
	return Fig9Data{
		Label:      m.Spec.Label,
		Thresholds: ths,
		Fraction:   reveng.FractionAbove(scores, ths),
		Strong:     reveng.StrongFeatures(scores, 0.7),
		MaxF1:      maxF1,
	}
}

// Fig10Cell is one annotated transition of Fig. 10.
type Fig10Cell struct {
	Before, After float64
	Fraction      float64 // of rows at Before
}

// Fig10 computes the aging transition fractions: per before-aging level,
// the fraction of rows whose HCfirst dropped after the aging interval.
func Fig10(m *profile.Module, agingDays float64, stride int) []Fig10Cell {
	before := m.NewModel()
	after := m.NewModel()
	after.AgingDays = agingDays
	levels := disturb.HammerLevels()
	banks := profile.TestedBanks()
	reg := before.RegularRows(stride)
	hcBefore, hcAfter := make([]float64, len(reg)), make([]float64, len(reg))
	counts := map[[2]float64]int{}
	totals := map[float64]int{}
	for _, b := range banks {
		before.HCFirstBank(hcBefore, reg, b, stride)
		after.HCFirstBank(hcAfter, reg, b, stride)
		for i := range reg {
			qb := censoredLevel(levels, hcBefore[i])
			qa := censoredLevel(levels, hcAfter[i])
			counts[[2]float64{qb, qa}]++
			totals[qb]++
		}
	}
	var out []Fig10Cell
	for key, n := range counts {
		out = append(out, Fig10Cell{
			Before:   key[0],
			After:    key[1],
			Fraction: float64(n) / float64(totals[key[0]]),
		})
	}
	return out
}
