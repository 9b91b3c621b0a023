package charz

import (
	"math"
	"sort"
	"testing"

	"svard/internal/profile"
)

func buildModule(t *testing.T, label string) *profile.Module {
	t.Helper()
	spec, ok := profile.SpecByLabel(label)
	if !ok {
		t.Fatalf("unknown module %s", label)
	}
	m, err := profile.BuildScaled(spec, 1, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTable5RowMatchesSpec(t *testing.T) {
	m := buildModule(t, "M0")
	row := Table5(m, 1)
	if row.MinHC != m.Spec.MinHC {
		t.Errorf("min = %v, want %v", row.MinHC, m.Spec.MinHC)
	}
	if rel := math.Abs(row.AvgHC-m.Spec.AvgHC) / m.Spec.AvgHC; rel > 0.12 {
		t.Errorf("avg = %v, want %v", row.AvgHC, m.Spec.AvgHC)
	}
	if row.MaxHC > m.Spec.MaxHC {
		t.Errorf("max = %v exceeds %v", row.MaxHC, m.Spec.MaxHC)
	}
}

func TestFig3BanksOverlap(t *testing.T) {
	// Obsv. 2: banks exhibit similar BER distributions — boxes overlap.
	m := buildModule(t, "H1")
	d := Fig3(m, 4)
	if len(d.Banks) != 4 {
		t.Fatalf("banks = %d", len(d.Banks))
	}
	for i := 1; i < len(d.Banks); i++ {
		a, b := d.Banks[0].Summary, d.Banks[i].Summary
		if a.Q3 < b.Q1 || b.Q3 < a.Q1 {
			t.Errorf("bank %d box does not overlap bank %d", d.Banks[i].Bank, d.Banks[0].Bank)
		}
	}
	if d.CV <= 0 {
		t.Error("CV must be positive: BER varies across rows (Obsv. 1)")
	}
}

func TestFig4NormalizedAndPeriodic(t *testing.T) {
	m := buildModule(t, "S4")
	pts := Fig4(m, 128)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	minY := math.Inf(1)
	for _, p := range pts {
		if p.Norm < minY {
			minY = p.Norm
		}
		if p.NormLo > p.Norm || p.NormHi < p.Norm {
			t.Fatalf("shade does not bracket mean at %v", p.Loc)
		}
	}
	if minY < 0.99 {
		t.Errorf("normalized minimum %v below 1", minY)
	}
	// Obsv. 4: repeating pattern — the curve must rise and fall multiple
	// times (count direction changes of a smoothed series).
	changes := 0
	for i := 2; i < len(pts); i++ {
		d1 := pts[i-1].Norm - pts[i-2].Norm
		d2 := pts[i].Norm - pts[i-1].Norm
		if d1*d2 < 0 {
			changes++
		}
	}
	if changes < 4 {
		t.Errorf("only %d direction changes; periodic structure missing", changes)
	}
}

func TestFig5FractionsSumToOne(t *testing.T) {
	m := buildModule(t, "S0")
	levels := Fig5(m, 2)
	if len(levels) != 14 { // the paper's 14 tested hammer counts
		t.Fatalf("levels = %d, want 14", len(levels))
	}
	sum := 0.0
	for _, l := range levels {
		sum += l.Frac
		if l.FracLo > l.Frac+1e-9 || l.FracHi < l.Frac-1e-9 {
			t.Errorf("level %v: span [%v,%v] does not bracket %v", l.Level, l.FracLo, l.FracHi, l.Frac)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	// S0's minimum is 32K: no mass below it.
	for _, l := range levels {
		if l.Level < m.Spec.MinHC && l.Frac > 0 {
			t.Errorf("mass %v below the module minimum at %v", l.Frac, l.Level)
		}
	}
}

func TestFig6NormalizedScatter(t *testing.T) {
	m := buildModule(t, "H0")
	pts := Fig6(m, 256)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if p.Y < 1 {
			t.Fatalf("normalized HCfirst %v below 1", p.Y)
		}
		if p.X < 0 || p.X > 1 {
			t.Fatalf("location %v outside [0,1]", p.X)
		}
	}
}

func TestFig7RowPressShape(t *testing.T) {
	// Takeaway 5: HCfirst decreases with tAggOn, and still varies widely
	// at 2us.
	m := buildModule(t, "H2")
	boxes := Fig7(m, 4)
	if len(boxes) != 3 {
		t.Fatalf("boxes = %d", len(boxes))
	}
	for i := 1; i < 3; i++ {
		if boxes[i].Summary.Mean >= boxes[i-1].Summary.Mean {
			t.Errorf("mean HCfirst not decreasing: %v -> %v", boxes[i-1].Summary.Mean, boxes[i].Summary.Mean)
		}
		if boxes[i].Summary.Q3 >= boxes[i-1].Summary.Q3 {
			t.Errorf("IQR not shifting down with on-time")
		}
	}
	if boxes[2].CV < 0.1 {
		t.Errorf("CV at 2us = %v; variation should persist (Obsv. 11)", boxes[2].CV)
	}
	// Roughly an order of magnitude drop at 2us (Fig. 7).
	ratio := boxes[0].Summary.Mean / boxes[2].Summary.Mean
	if ratio < 5 || ratio > 30 {
		t.Errorf("36ns/2us HCfirst ratio = %v, want ~an order of magnitude", ratio)
	}
}

func TestFig8FindsSubarrayCount(t *testing.T) {
	m := buildModule(t, "S2")
	d := Fig8(m, 4)
	if d.BestK != d.TruthK {
		t.Errorf("best k = %d, truth %d", d.BestK, d.TruthK)
	}
	if len(d.Curve) == 0 {
		t.Fatal("empty curve")
	}
}

func TestFig9Table3Membership(t *testing.T) {
	strongCount := map[string]int{}
	maxF1 := 0.0
	for _, label := range []string{"S0", "S4", "H1", "M4"} {
		m := buildModule(t, label)
		d := Fig9(m)
		strongCount[label] = len(d.Strong)
		if d.MaxF1 > maxF1 {
			maxF1 = d.MaxF1
		}
		// The Fig. 9 curve is non-empty and monotone non-increasing.
		if len(d.Fraction) == 0 {
			t.Errorf("%s: empty fraction curve", label)
		}
		for i := 1; i < len(d.Fraction); i++ {
			if d.Fraction[i] > d.Fraction[i-1]+1e-12 {
				t.Errorf("%s: fraction curve not monotone", label)
			}
		}
	}
	if strongCount["S0"] == 0 || strongCount["S4"] == 0 {
		t.Errorf("S modules lack strong features: %v", strongCount)
	}
	if strongCount["H1"] != 0 || strongCount["M4"] != 0 {
		t.Errorf("H/M modules show strong features: %v", strongCount)
	}
	if maxF1 > 0.85 {
		t.Errorf("max F1 = %v; paper's strongest average is 0.77", maxF1)
	}
}

func TestFig10AgingTransitions(t *testing.T) {
	m := buildModule(t, "H3") // the paper ages module H3
	cells := Fig10(m, 68, 1)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Before < cells[j].Before })
	degraded := 0
	for _, c := range cells {
		if c.After > c.Before {
			t.Fatalf("aging raised HCfirst: %v -> %v", c.Before, c.After)
		}
		if c.After < c.Before {
			degraded++
			if c.Before >= 96*1024 {
				t.Errorf("strong rows must not age (Obsv. 13): %v -> %v", c.Before, c.After)
			}
			if c.Fraction > 0.15 {
				t.Errorf("degradation fraction %v at %v implausibly high", c.Fraction, c.Before)
			}
		}
	}
	if degraded == 0 {
		t.Error("no degradation transitions (Obsv. 12 expects a non-zero fraction)")
	}
	// Per-before fractions sum to 1.
	sums := map[float64]float64{}
	for _, c := range cells {
		sums[c.Before] += c.Fraction
	}
	for before, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("fractions at %v sum to %v", before, s)
		}
	}
}
