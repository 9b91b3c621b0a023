package profile

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"svard/internal/disturb"
	"svard/internal/stats"
)

func TestTable5Inventory(t *testing.T) {
	specs := Table5()
	if len(specs) != 15 {
		t.Fatalf("got %d modules, want 15", len(specs))
	}
	chips := 0
	designs := map[string]bool{}
	byMfr := map[Manufacturer]int{}
	for _, s := range specs {
		chips += s.Chips
		designs[fmt.Sprintf("%s/%s/%d/x%d", s.Mfr, s.DieRev, s.DensityGb, s.Org)] = true
		byMfr[s.Mfr]++
		if s.MinHC >= s.AvgHC || s.AvgHC >= s.MaxHC {
			t.Errorf("%s: min/avg/max not ordered", s.Label)
		}
		if s.RowsPerBank%K != 0 {
			t.Errorf("%s: odd row count %d", s.Label, s.RowsPerBank)
		}
	}
	if chips != 144 {
		t.Errorf("total chips = %d, want 144 (paper abstract)", chips)
	}
	if len(designs) != 10 {
		t.Errorf("distinct chip designs = %d, want 10", len(designs))
	}
	if byMfr[MfrH] != 5 || byMfr[MfrM] != 5 || byMfr[MfrS] != 5 {
		t.Errorf("modules per manufacturer = %v, want 5 each", byMfr)
	}
}

func TestSpecByLabel(t *testing.T) {
	s, ok := SpecByLabel("M2")
	if !ok || s.Mfr != MfrM || s.BER128 != 8.0e-2 {
		t.Errorf("SpecByLabel(M2) = %+v, %v", s, ok)
	}
	if _, ok := SpecByLabel("Z9"); ok {
		t.Error("unknown label found")
	}
}

func TestTestedBanks(t *testing.T) {
	b := TestedBanks()
	want := []int{1, 4, 10, 15}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("tested banks = %v, want %v", b, want)
		}
	}
}

// buildScaledForTest builds a module with a small bank so the full
// calibration is fast.
func buildScaledForTest(t *testing.T, label string) *Module {
	t.Helper()
	spec, ok := SpecByLabel(label)
	if !ok {
		t.Fatalf("unknown label %s", label)
	}
	m, err := BuildScaled(spec, 1, 4*K, 8*K)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCalibrationHitsTargets(t *testing.T) {
	// Calibration must reproduce each module's Table 5 min (exactly, on
	// the quantized grid), avg (within tolerance), and Fig. 3 BER scale.
	levels := disturb.HammerLevels()
	for _, label := range []string{"H0", "M0", "M2", "M3", "S0"} {
		label := label
		t.Run(label, func(t *testing.T) {
			m := buildScaledForTest(t, label)
			model := m.NewModel()
			banks := TestedBanks()

			var quantized []float64
			var bers []float64
			minHC := math.Inf(1)
			for _, b := range banks {
				for row := 0; row < m.Geom.RowsPerBank; row++ {
					hcf := model.HCFirst(b, row)
					if hcf < minHC {
						minHC = hcf
					}
					q, ok := disturb.Quantize(levels, hcf)
					if !ok {
						q = 128 * K
					}
					quantized = append(quantized, q)
					bers = append(bers, model.BER(b, row, 128*K))
				}
			}
			qs := stats.Summarize(quantized)
			if qs.Min != m.Spec.MinHC {
				t.Errorf("quantized min = %v, want %v", qs.Min, m.Spec.MinHC)
			}
			if rel := math.Abs(qs.Mean-m.Spec.AvgHC) / m.Spec.AvgHC; rel > 0.12 {
				t.Errorf("quantized avg = %v, want %v (+-12%%)", qs.Mean, m.Spec.AvgHC)
			}
			bs := stats.Summarize(bers)
			if rel := math.Abs(bs.Mean-m.Spec.BER128) / m.Spec.BER128; rel > 0.35 {
				t.Errorf("mean BER128 = %v, want %v (+-35%%)", bs.Mean, m.Spec.BER128)
			}
			if m.Spec.MaxHC < 128*K && qs.Max > m.Spec.MaxHC {
				t.Errorf("quantized max = %v exceeds cap %v", qs.Max, m.Spec.MaxHC)
			}
		})
	}
}

func TestCalibrationBERCVOrdering(t *testing.T) {
	// M1 (CV 8.08%) must show much larger BER spread than M4 (CV 0.65%).
	cv := func(label string) float64 {
		m := buildScaledForTest(t, label)
		model := m.NewModel()
		var bers []float64
		for row := 0; row < m.Geom.RowsPerBank; row++ {
			bers = append(bers, model.BER(1, row, 128*K))
		}
		return stats.Summarize(bers).CV()
	}
	if cvM1, cvM4 := cv("M1"), cv("M4"); cvM1 < 3*cvM4 {
		t.Errorf("BER CV ordering violated: M1=%v M4=%v", cvM1, cvM4)
	}
}

func TestCaptureAndSafety(t *testing.T) {
	m := buildScaledForTest(t, "S0")
	model := m.NewModel()
	banks := TestedBanks()
	p := Capture(model, m.Spec.Label, banks)

	// Security invariant: every safe threshold is strictly below the
	// row's true HCfirst.
	for _, b := range banks {
		for row := 0; row < m.Geom.RowsPerBank; row++ {
			if th := p.SafeThreshold(b, row); th >= model.HCFirst(b, row) {
				t.Fatalf("bank %d row %d: safe threshold %v >= true HCfirst %v",
					b, row, th, model.HCFirst(b, row))
			}
		}
	}
	if p.NumBins() > 16 {
		t.Errorf("profile uses %d bins, must fit a 4-bit id (<=16)", p.NumBins())
	}
	counts := p.BinCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(banks)*m.Geom.RowsPerBank {
		t.Errorf("bin counts cover %d rows, want %d", total, len(banks)*m.Geom.RowsPerBank)
	}
}

func TestProfileUncharacterizedBankFallback(t *testing.T) {
	m := buildScaledForTest(t, "H0")
	p := Capture(m.NewModel(), "H0", TestedBanks())
	// Bank 0 was not characterized: lookups must still work and return a
	// representative bank's value.
	th := p.SafeThreshold(0, 123)
	if th <= 0 {
		t.Errorf("fallback threshold = %v", th)
	}
}

func TestScaledProfile(t *testing.T) {
	m := buildScaledForTest(t, "M0")
	p := Capture(m.NewModel(), "M0", TestedBanks())
	s := p.ScaledTo(1024)
	if got := s.MinSafeThreshold(); math.Abs(got-1024) > 1e-9 {
		t.Errorf("scaled min = %v, want 1024", got)
	}
	// Scaling preserves ratios.
	r0 := p.SafeThreshold(1, 0) / p.MinSafeThreshold()
	r1 := s.SafeThreshold(1, 0) / s.MinSafeThreshold()
	if math.Abs(r0-r1) > 1e-9 {
		t.Errorf("scaling distorted ratios: %v vs %v", r0, r1)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	m := buildScaledForTest(t, "S3")
	p := Capture(m.NewModel(), "S3", TestedBanks())
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Label != p.Label || q.RowsPerBank != p.RowsPerBank {
		t.Fatal("metadata lost in round trip")
	}
	for b := range p.Bins {
		for r := range p.Bins[b] {
			if p.Bins[b][r] != q.Bins[b][r] {
				t.Fatalf("bin mismatch at %d/%d", b, r)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"label":"x","rows_per_bank":10,"banks":[1,2],"levels":[1],"bins":[[0]]}`)); err == nil {
		t.Error("inconsistent bins accepted")
	}
	if _, err := Unmarshal([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSetBinSemantics(t *testing.T) {
	p := NewEmpty("t", 4, []int{0}, []float64{10, 20, 30})
	p.SetBin(0, 0, 0) // flips at first level
	if p.SafeThreshold(0, 0) != 5 {
		t.Errorf("below-grid safe threshold = %v, want levels[0]/2", p.SafeThreshold(0, 0))
	}
	p.SetBin(0, 1, 2) // first flip at level idx 2 -> safe = levels[1]
	if p.SafeThreshold(0, 1) != 20 {
		t.Errorf("safe threshold = %v, want 20", p.SafeThreshold(0, 1))
	}
	p.SetBin(0, 2, 3) // censored -> safe = top level
	if p.SafeThreshold(0, 2) != 30 {
		t.Errorf("censored safe threshold = %v, want 30", p.SafeThreshold(0, 2))
	}
	// Unmeasured row stays most conservative.
	if p.SafeThreshold(0, 3) != 5 {
		t.Errorf("unmeasured safe threshold = %v, want 5", p.SafeThreshold(0, 3))
	}
}

func TestQuickSafeThresholdPositive(t *testing.T) {
	m := buildScaledForTest(t, "H4")
	p := Capture(m.NewModel(), "H4", TestedBanks())
	f := func(bank uint8, row uint16) bool {
		th := p.SafeThreshold(int(bank)%16, int(row)%p.RowsPerBank)
		return th > 0 && th <= 128*K
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZeroBankProfileConservative(t *testing.T) {
	// A degenerate profile with no characterized banks is only
	// constructible by hand, but lookups on one must stay conservative
	// instead of dividing by zero in the representative-bank modulo.
	p := &VulnProfile{Label: "empty", RowsPerBank: 4, Levels: []float64{10, 20}}
	if idx := p.SafeIdx(3, 2); idx != BinBelowGrid {
		t.Errorf("SafeIdx on empty profile = %d, want BinBelowGrid", idx)
	}
	if th := p.SafeThreshold(3, 2); th != 5 {
		t.Errorf("SafeThreshold on empty profile = %v, want levels[0]/2", th)
	}
	p.Levels = nil
	if th := p.SafeThreshold(0, 0); th != 0 {
		t.Errorf("SafeThreshold with no levels = %v, want 0", th)
	}
}

func TestNewEmptyPanicsOnBadShape(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewEmpty with no banks", func() { NewEmpty("t", 4, nil, []float64{10}) })
	mustPanic("NewEmpty with no levels", func() { NewEmpty("t", 4, []int{0}, nil) })
	bigGrid := make([]float64, BinBelowGrid)
	for i := range bigGrid {
		bigGrid[i] = float64(i + 1)
	}
	mustPanic("NewEmpty with 255 levels", func() { NewEmpty("t", 4, []int{0}, bigGrid) })
	// One below the reserved marker is the largest legal grid.
	if p := NewEmpty("t", 4, []int{0}, bigGrid[:BinBelowGrid-1]); p.NumBins() == 0 {
		t.Error("254-level grid rejected")
	}
}

func TestUnmarshalRejectsBadShapes(t *testing.T) {
	cases := map[string]string{
		"no banks":         `{"label":"x","rows_per_bank":2,"banks":[],"levels":[1],"bins":[]}`,
		"no levels":        `{"label":"x","rows_per_bank":2,"banks":[1],"levels":[],"bins":[[255,255]]}`,
		"zero rows":        `{"label":"x","rows_per_bank":0,"banks":[1],"levels":[1],"bins":[[]]}`,
		"out-of-range bin": `{"label":"x","rows_per_bank":2,"banks":[1],"levels":[1,2],"bins":[[0,2]]}`,
	}
	for name, data := range cases {
		if _, err := Unmarshal([]byte(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// BinBelowGrid is always legal, as is the top real index.
	ok := `{"label":"x","rows_per_bank":2,"banks":[1],"levels":[1,2],"bins":[[255,1]]}`
	if _, err := Unmarshal([]byte(ok)); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestRepresentativeLabelsExist(t *testing.T) {
	for _, l := range RepresentativeLabels() {
		if _, ok := SpecByLabel(l); !ok {
			t.Errorf("representative module %s missing from Table 5", l)
		}
	}
}
