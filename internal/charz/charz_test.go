package charz

import (
	"math"
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

// TestTable5RowMatchesSpec: a measured row carries its module's identity,
// and its statistics are ordered. Whether they are the paper's numbers is
// the Table 5 row of the scorecard (TestPaperClaims).
func TestTable5RowMatchesSpec(t *testing.T) {
	m := buildModule(t, "M0")
	row := Table5(m, 1)
	if row.Label != m.Spec.Label || row.DieRev != m.Spec.DieRev || row.RowsPerBank != m.Spec.RowsPerBank {
		t.Errorf("row %+v does not carry its module's spec", row)
	}
	if row.MinHC > row.AvgHC || row.AvgHC > row.MaxHC {
		t.Errorf("min %v, avg %v, max %v out of order", row.MinHC, row.AvgHC, row.MaxHC)
	}
}

// TestFig4NormalizedAndPeriodic: the curve is normalized to its minimum
// and its shade brackets it; its period (Obsv. 4) is the scorecard's.
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

// TestFig9Table3Membership: for each module Table 3 names, the Fig. 9
// curve is non-empty and non-increasing. Which modules have strong
// features is the scorecard's Table 3 row.
func TestFig9Table3Membership(t *testing.T) {
	for _, label := range []string{"S0", "S4", "H1", "M4"} {
		d := Fig9(buildModule(t, label))
		if len(d.Fraction) == 0 {
			t.Errorf("%s: empty fraction curve", label)
		}
		for i := 1; i < len(d.Fraction); i++ {
			if d.Fraction[i] > d.Fraction[i-1]+1e-12 {
				t.Errorf("%s: fraction curve not monotone", label)
			}
		}
	}
}

// TestFig10AgingTransitions: aging never raises a row's HCfirst, and each
// before-aging level's transition fractions sum to 1. What aging does to
// which rows (Obsv. 12-13) is the scorecard's.
func TestFig10AgingTransitions(t *testing.T) {
	cells := Fig10(buildModule(t, "H3"), 68, 1) // the paper ages module H3
	sums := map[float64]float64{}
	for _, c := range cells {
		if c.After > c.Before {
			t.Fatalf("aging raised HCfirst: %v -> %v", c.Before, c.After)
		}
		sums[c.Before] += c.Fraction
	}
	for before, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("fractions at %v sum to %v", before, s)
		}
	}
}
