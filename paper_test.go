package svard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svard/internal/charz"
	"svard/internal/core"
	"svard/internal/profile"
	"svard/internal/sim"
)

// evidence is everything TestPaperClaims judges, built once per run. The
// Fig. 12/13 cells are the committed fixtures: the TestGolden* tests of
// internal/sim pin the simulator to those bytes, so no row simulates. The
// modules are every Table 5 module at the characterization tests' scale.
type evidence struct {
	fig12   []fig12Fixture
	fig13   []sim.Fig13Cell
	modules map[string]*profile.Module // by Table 5 label
}

// fig12Fixture is one committed Fig. 12 sweep, named by its backend.
type fig12Fixture struct {
	name  string
	cells []sim.Fig12Cell
}

// verdict collects a row's measured values; one that misses the row's
// bound fails the row.
type verdict struct {
	got    []string
	failed bool
}

func (v *verdict) note(ok bool, format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if !ok {
		line = "MISSES: " + line
		v.failed = true
	}
	v.got = append(v.got, line)
}

// fig12Range checks the range f takes over each Fig. 12 fixture's cells.
func fig12Range(what string, f func(sim.Fig12Cell) float64, ok func(lo, hi float64) bool) func(*evidence, *verdict) {
	return func(e *evidence, v *verdict) {
		for _, fx := range e.fig12 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, c := range fx.cells {
				lo, hi = min(lo, f(c)), max(hi, f(c))
			}
			v.note(ok(lo, hi), "%s: %s in [%.4g, %.4g] over %d cells", fx.name, what, lo, hi, len(fx.cells))
		}
	}
}

// table5Disagrees names the modules whose calibrated statistics are known
// to miss Table 5: M3's average HCfirst comes out 39 % above the paper's
// (EXPERIMENTS.md, "Table 5: M3"). The row fails if one of them starts to
// agree, so the note cannot outlive the disagreement.
var table5Disagrees = map[string]bool{"M3": true}

// paperClaims is the scorecard: one row per shape the paper reports, with
// where it says so, the claim and its bound in words, and the measurement.
var paperClaims = []struct {
	name, ref string
	says      string
	check     func(e *evidence, v *verdict)
}{{
	name: "Table5", ref: "Table 5",
	says: "every module's min HCfirst is exact, its average within 12 %, its max <= spec; all but M3 agree",
	check: func(e *evidence, v *verdict) {
		for _, spec := range profile.Table5() {
			row := charz.Table5(e.modules[spec.Label], 1)
			rel := (row.AvgHC - spec.AvgHC) / spec.AvgHC
			agrees := row.MinHC == spec.MinHC && math.Abs(rel) <= 0.12 && row.MaxHC <= spec.MaxHC
			v.note(agrees != table5Disagrees[spec.Label], "%s min %v (spec %v), avg %.0f (spec %v, %+.1f %%), max %v (spec %v), known off: %v",
				spec.Label, row.MinHC, spec.MinHC, row.AvgHC, spec.AvgHC, 100*rel, row.MaxHC, spec.MaxHC, table5Disagrees[spec.Label])
		}
	},
}, {
	name: "Obsv1_2", ref: "Obsv. 1-2, Fig. 3",
	says: "BER varies across H1's rows (CV > 0), but its 4 tested banks' IQR boxes all overlap the first's",
	check: func(e *evidence, v *verdict) {
		d := charz.Fig3(e.modules["H1"], 4)
		v.note(d.CV > 0 && len(d.Banks) == 4, "CV %.4f over %d banks", d.CV, len(d.Banks))
		for _, b := range d.Banks[1:] {
			a, s := d.Banks[0].Summary, b.Summary
			v.note(a.Q3 >= s.Q1 && s.Q3 >= a.Q1, "bank %d IQR [%.4g, %.4g], bank %d [%.4g, %.4g]",
				b.Bank, s.Q1, s.Q3, d.Banks[0].Bank, a.Q1, a.Q3)
		}
	},
}, {
	name: "Obsv4", ref: "Obsv. 4, Fig. 4",
	says: "S4's BER by row location repeats: >= 4 direction changes of the normalized curve",
	check: func(e *evidence, v *verdict) {
		pts := charz.Fig4(e.modules["S4"], 128)
		changes := 0
		for i := 2; i < len(pts); i++ {
			if (pts[i-1].Norm-pts[i-2].Norm)*(pts[i].Norm-pts[i-1].Norm) < 0 {
				changes++
			}
		}
		v.note(changes >= 4, "%d direction changes over %d points", changes, len(pts))
	},
}, {
	name: "Fig5", ref: "Fig. 5",
	says: "no row of S0 flips below the module's minimum HCfirst (32K): fraction 0 below it",
	check: func(e *evidence, v *verdict) {
		m, below := e.modules["S0"], 0.0
		for _, l := range charz.Fig5(m, 2) {
			if l.Level < m.Spec.MinHC {
				below += l.Frac
			}
		}
		v.note(below == 0, "fraction below %v: %v", m.Spec.MinHC, below)
	},
}, {
	name: "Takeaway5_Obsv11", ref: "Takeaway 5, Obsv. 11, Fig. 7",
	says: "H2's mean and Q3 HCfirst fall strictly over tAggOn 36 ns, 500 ns, 2 us, by 5-30x at 2 us, and CV stays >= 0.1 at 2 us",
	check: func(e *evidence, v *verdict) {
		b := charz.Fig7(e.modules["H2"], 4) // 36 ns, 500 ns, 2 us
		for i := 1; i < 3; i++ {
			x, y := b[i-1].Summary, b[i].Summary
			v.note(y.Mean < x.Mean && y.Q3 < x.Q3, "%v -> %v ns: mean %.0f -> %.0f, Q3 %.0f -> %.0f",
				b[i-1].TAggOnNs, b[i].TAggOnNs, x.Mean, y.Mean, x.Q3, y.Q3)
		}
		ratio := b[0].Summary.Mean / b[2].Summary.Mean
		v.note(ratio >= 5 && ratio <= 30, "mean 36 ns / 2 us %.2f", ratio)
		v.note(b[2].CV >= 0.1, "CV at 2 us %.3f", b[2].CV)
	},
}, {
	name: "Fig8", ref: "Fig. 8",
	says: "S2's silhouette score peaks at the true subarray count",
	check: func(e *evidence, v *verdict) {
		d := charz.Fig8(e.modules["S2"], 4)
		v.note(d.BestK == d.TruthK && len(d.Curve) > 0, "best k %d, true k %d, %d points", d.BestK, d.TruthK, len(d.Curve))
	},
}, {
	name: "Table3", ref: "Table 3, Takeaway 6, Fig. 9",
	says: "S0 and S4 have a feature with F1 > 0.7, H1 and M4 none, and no F1 exceeds 0.85 (the paper's strongest is 0.77)",
	check: func(e *evidence, v *verdict) {
		for _, label := range []string{"S0", "S4", "H1", "M4"} {
			d := charz.Fig9(e.modules[label])
			v.note((len(d.Strong) > 0) == strings.HasPrefix(label, "S") && d.MaxF1 <= 0.85,
				"%s: %d strong features, max F1 %.3f", label, len(d.Strong), d.MaxF1)
		}
	},
}, {
	name: "Obsv12_13", ref: "Obsv. 12-13, Fig. 10",
	says: "68 days of aging lower some of H3's rows (each transition <= 0.15 of its level), none from >= 96K",
	check: func(e *evidence, v *verdict) {
		degraded, strong, worst := 0, 0, 0.0
		for _, c := range charz.Fig10(e.modules["H3"], 68, 1) {
			if c.After < c.Before {
				degraded, worst = degraded+1, max(worst, c.Fraction)
				if c.Before >= 96*1024 {
					strong++
				}
			}
		}
		v.note(degraded > 0 && worst <= 0.15, "%d degraded transitions, largest fraction %.4f", degraded, worst)
		v.note(strong == 0, "%d of them from >= 96K", strong)
	},
}, {
	name: "Svard_budgets", ref: "§6, Fig. 5",
	says: "scaled to a 64 minimum, >= 40 % of S0's rows get >= 1.5x the worst-case budget, and the mean is >= 1.6x",
	check: func(e *evidence, v *verdict) {
		m := e.modules["S0"]
		s, err := core.New(profile.Capture(m.NewModel(), "S0", profile.TestedBanks()).ScaledTo(64))
		if err != nil {
			v.note(false, "%v", err)
			return
		}
		worst, rows, better, sum := s.MinBudget(), m.Geom.RowsPerBank, 0, 0.0
		for row := 0; row < rows; row++ {
			b := s.ActivationBudget(1, row)
			if sum += b; b >= 1.5*worst {
				better++
			}
		}
		frac, mean := float64(better)/float64(rows), sum/float64(rows)
		v.note(frac >= 0.4 && mean >= 1.6*worst, "%.3f of bank 1's rows at >= 1.5x, mean %.2fx of %v", frac, mean/worst, worst)
	},
}, {
	name: "Cost", ref: "§6.4",
	says: "an MC table costs 0.056 mm2 per bank, 0.86 % of the CPU die, 0.47 ns hidden under ACT; DRAM bits cost 4/65536 of the array and no latency",
	check: func(e *evidence, v *verdict) {
		c, d := core.TableImplementation(core.DefaultCostConfig()), core.DRAMBitsImplementation(core.DefaultCostConfig())
		v.note(math.Abs(c.PerBankMM2-0.056) <= 1e-9, "table: %v mm2 per bank", c.PerBankMM2)
		v.note(math.Abs(c.CPUAreaFrac-0.0086) <= 1e-4, "table: %.5f of the CPU die", c.CPUAreaFrac)
		v.note(math.Abs(c.AccessNs-0.47) <= 0.01 && c.HiddenByACT, "table: %.3f ns, hidden by ACT %v", c.AccessNs, c.HiddenByACT)
		v.note(math.Abs(d.ArrayOverheadFrac-4.0/65536) <= 1e-12 && d.AddedLatencyNs == 0,
			"DRAM bits: %v of the array, %v ns added", d.ArrayOverheadFrac, d.AddedLatencyNs)
	},
}, {
	name: "Fig12_no_bitflips", ref: "§7.1, Fig. 12",
	says: "every defense, with and without Svärd, prevents every bitflip: 0 in every cell",
	check: fig12Range("bitflips", func(c sim.Fig12Cell) float64 { return float64(c.Violations) },
		func(lo, hi float64) bool { return hi == 0 }),
}, {
	name: "Fig12_WS_range", ref: "Fig. 12",
	says: "weighted speedup is normalized to the defense-free baseline: 0 < WS <= 1.2 in every cell",
	check: fig12Range("WS", func(c sim.Fig12Cell) float64 { return c.WS },
		func(lo, hi float64) bool { return lo > 0 && hi <= 1.2 }),
}, {
	name: "Fig12_HS_below_WS", ref: "Fig. 12",
	says: "harmonic speedup never exceeds weighted speedup: HS - WS <= 1e-9 in every cell",
	check: fig12Range("HS - WS", func(c sim.Fig12Cell) float64 { return c.HS - c.WS },
		func(lo, hi float64) bool { return hi <= 1e-9 }),
}, {
	name: "Fig12_span", ref: "Fig. 12",
	says: "each bar's min-max whisker over the mixes brackets its mean (1e-9)",
	check: fig12Range("excursion past the span", func(c sim.Fig12Cell) float64 { return max(c.WSMin-c.WS, c.WS-c.WSMax) },
		func(lo, hi float64) bool { return hi <= 1e-9 }),
}, {
	name: "Obsv14", ref: "Obsv. 14, Fig. 12",
	says: "at nRH 64 Svärd raises every defense's weighted speedup, on every backend",
	check: func(e *evidence, v *verdict) {
		for _, fx := range e.fig12 {
			for _, no := range fx.cells {
				for _, sv := range fx.cells {
					if no.NRH == 64 && sv.NRH == 64 && no.Defense == sv.Defense && no.Config == "NoSvard" && sv.Config != "NoSvard" {
						v.note(sv.WS > no.WS, "%s %s: %.4f -> %.4f (%s)", fx.name, no.Defense, no.WS, sv.WS, sv.Config)
					}
				}
			}
		}
	},
}, {
	name: "Fig12_overhead_grows", ref: "§7.2, Fig. 12",
	says: "a defense costs more as the threshold falls: WS strictly lower at the lower nRH, per defense, configuration and backend",
	check: func(e *evidence, v *verdict) {
		for _, fx := range e.fig12 {
			for _, lo := range fx.cells {
				for _, hi := range fx.cells {
					if lo.Defense == hi.Defense && lo.Config == hi.Config && lo.NRH < hi.NRH {
						v.note(lo.WS < hi.WS, "%s %s %s: %.4f@%v -> %.4f@%v", fx.name, lo.Defense, lo.Config, hi.WS, hi.NRH, lo.WS, lo.NRH)
					}
				}
			}
		}
	},
}, {
	name: "Takeaway9", ref: "Takeaway 9, Fig. 13",
	says: "under attack Svärd never worsens a defense's slowdown: relative to NoSvard (= 1) it is <= 1.02",
	check: func(e *evidence, v *verdict) {
		for _, c := range e.fig13 {
			ok := c.RelToNoSvard <= 1.02
			if c.Config == "NoSvard" {
				ok = c.RelToNoSvard == 1
			}
			v.note(ok, "%s %s: %.4f", c.Defense, c.Config, c.RelToNoSvard)
		}
	},
}, {
	name: "Obsv16_17", ref: "Obsv. 16-17, Fig. 13",
	says: "under attack RRS gains more from Svärd than Hydra: its relative slowdown is lower",
	check: func(e *evidence, v *verdict) {
		rel := map[string]float64{}
		for _, c := range e.fig13 {
			if c.Config != "NoSvard" {
				rel[c.Defense] = c.RelToNoSvard
			}
		}
		v.note(rel["rrs"] > 0 && rel["rrs"] < rel["hydra"], "rrs %.4f, hydra %.4f", rel["rrs"], rel["hydra"])
	},
}}

// fixtureCells decodes the cells of a committed golden fixture.
func fixtureCells[T any](t *testing.T, name string) []T {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("internal", "sim", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Cells []T }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return f.Cells
}

// TestPaperClaims is the repository's scorecard of the paper's shapes, one
// subtest per row, each logging its measurement under -v. What has to
// simulate to be judged (every defense stopping an attack) is
// TestEndToEndDefenseProtects; unit invariants of the figures stay with
// their packages.
func TestPaperClaims(t *testing.T) {
	e := &evidence{
		fig12: []fig12Fixture{
			{"ddr4", fixtureCells[sim.Fig12Cell](t, "fig12_golden.json")},
			{"hbm2", fixtureCells[sim.Fig12Cell](t, "fig12_hbm2_golden.json")},
		},
		fig13:   fixtureCells[sim.Fig13Cell](t, "fig13_golden.json"),
		modules: map[string]*profile.Module{},
	}
	for _, spec := range profile.Table5() {
		m, err := profile.BuildScaled(spec, 1, 4096, 4096)
		if err != nil {
			t.Fatal(err)
		}
		e.modules[spec.Label] = m
	}
	for _, c := range paperClaims {
		t.Run(c.name, func(t *testing.T) {
			var v verdict
			c.check(e, &v)
			t.Logf("%s: %s\n\t%s", c.ref, c.says, strings.Join(v.got, "\n\t"))
			if v.failed || len(v.got) == 0 {
				t.Errorf("%s does not hold (or measured nothing)", c.ref)
			}
		})
	}
}
