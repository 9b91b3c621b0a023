package core

import (
	"math"
	"testing"
	"testing/quick"

	"svard/internal/disturb"
	"svard/internal/profile"
)

func testSvard(t *testing.T, label string, targetMin float64, opts ...Option) (*Svard, *disturb.Model, float64) {
	t.Helper()
	spec, ok := profile.SpecByLabel(label)
	if !ok {
		t.Fatalf("unknown module %s", label)
	}
	m, err := profile.BuildScaled(spec, 1, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	model := m.NewModel()
	prof := profile.Capture(model, label, profile.TestedBanks())
	scaled := prof.ScaledTo(targetMin)
	s, err := New(scaled, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, model, scaled.Factor
}

func TestFixedThresholds(t *testing.T) {
	f := Fixed(1024)
	if f.ActivationBudget(3, 99) != 1024 || f.MinBudget() != 1024 {
		t.Error("Fixed threshold must be constant")
	}
}

func TestNewRejectsNil(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestBudgetIsMinOverVictims(t *testing.T) {
	s, _, _ := testSvard(t, "S0", 1024)
	prof := s.Profile()
	for _, bank := range profile.TestedBanks() {
		for row := 2; row < 100; row++ {
			want := math.Inf(1)
			for d := -BlastRadius; d <= BlastRadius; d++ {
				if d == 0 {
					continue
				}
				v := row + d
				if v < 0 || v >= prof.P.RowsPerBank {
					continue
				}
				th := prof.SafeThreshold(bank, v)
				if d == -2 || d == 2 {
					th /= Distance2Coupling
				}
				if th < want {
					want = th
				}
			}
			if got := s.ActivationBudget(bank, row); got != want {
				t.Fatalf("bank %d row %d: budget %v, want %v", bank, row, got, want)
			}
		}
	}
}

// Security invariant: hammering any row for its activation budget must
// not flip any of its victims, under the scaled vulnerability model.
func TestBudgetNeverExceedsVictimHCFirst(t *testing.T) {
	for _, label := range []string{"S0", "M0", "H1"} {
		for _, target := range []float64{4096, 256, 64} {
			s, model, factor := testSvard(t, label, target)
			for _, bank := range profile.TestedBanks() {
				for row := 0; row < 4096; row++ {
					budget := s.ActivationBudget(bank, row)
					for d := -BlastRadius; d <= BlastRadius; d++ {
						v := row + d
						if d == 0 || v < 0 || v >= 4096 {
							continue
						}
						// Effective hammers the victim sees if this row is
						// activated budget times (distance-2 victims couple
						// at Distance2Coupling, itself 2x the model's).
						eff := budget
						if d == -2 || d == 2 {
							eff *= Distance2Coupling
						}
						trueHC := model.HCFirst(bank, v) * factor
						if eff >= trueHC {
							t.Fatalf("%s target %v bank %d row %d: effective %v >= victim %d scaled HCfirst %v",
								label, target, bank, row, eff, v, trueHC)
						}
					}
				}
			}
		}
	}
}

func TestBudgetAtLeastMin(t *testing.T) {
	s, _, _ := testSvard(t, "M0", 512)
	min := s.MinBudget()
	for row := 0; row < 4096; row += 7 {
		if b := s.ActivationBudget(4, row); b < min {
			t.Fatalf("row %d budget %v below profile minimum %v", row, b, min)
		}
	}
}

func TestBloomStoreConservative(t *testing.T) {
	sExact, _, _ := testSvard(t, "S0", 1024)
	sBloom, _, _ := testSvard(t, "S0", 1024, WithBloomStore(1<<17))
	lower, n := 0, 0
	for _, bank := range profile.TestedBanks() {
		for row := 0; row < 4096; row += 3 {
			e := sExact.ActivationBudget(bank, row)
			b := sBloom.ActivationBudget(bank, row)
			if b > e {
				t.Fatalf("bloom store over-reported: row %d exact %v bloom %v", row, e, b)
			}
			if b < e {
				lower++
			}
			n++
		}
	}
	// False positives must be rare with generously sized filters.
	if frac := float64(lower) / float64(n); frac > 0.05 {
		t.Errorf("bloom store degraded %v of budgets; filters too small", frac)
	}
}

func TestBloomStoreSize(t *testing.T) {
	spec, _ := profile.SpecByLabel("M0")
	m, err := profile.BuildScaled(spec, 1, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.Capture(m.NewModel(), "M0", profile.TestedBanks())
	bs := NewBloomStore(prof.ScaledTo(1024), 1<<12)
	if bs.SizeBits() == 0 {
		t.Fatal("empty bloom store")
	}
	// Compression: far fewer bits than the exact table (4 bits per row x
	// 4 banks x 4096 rows = 64Kb).
	if bs.SizeBits() >= 4*4*4096 {
		t.Errorf("bloom store (%d bits) not smaller than exact table", bs.SizeBits())
	}
}

func TestQuickBudgetPositive(t *testing.T) {
	s, _, _ := testSvard(t, "H1", 128)
	f := func(bank uint8, row uint16) bool {
		b := s.ActivationBudget(int(bank)%16, int(row)%4096)
		return b > 0 && !math.IsInf(b, 0) && !math.IsNaN(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableCostMatchesPaper(t *testing.T) {
	c := TableImplementation(DefaultCostConfig())
	if math.Abs(c.PerBankMM2-0.056) > 1e-9 {
		t.Errorf("per-bank area = %v mm2, want 0.056 (paper §6.4)", c.PerBankMM2)
	}
	if math.Abs(c.CPUAreaFrac-0.0086) > 1e-4 {
		t.Errorf("CPU area fraction = %v, want 0.86%%", c.CPUAreaFrac)
	}
	if math.Abs(c.AccessNs-0.47) > 0.01 {
		t.Errorf("access latency = %v ns, want 0.47", c.AccessNs)
	}
	if !c.HiddenByACT {
		t.Error("table lookup must hide under row activation latency")
	}
}

func TestDRAMBitsCostMatchesPaper(t *testing.T) {
	c := DRAMBitsImplementation(DefaultCostConfig())
	if math.Abs(c.ArrayOverheadFrac-0.00006103515625) > 1e-12 {
		t.Errorf("DRAM array overhead = %v, want 4/65536 (0.006%%)", c.ArrayOverheadFrac)
	}
	if c.AddedLatencyNs != 0 {
		t.Error("in-DRAM metadata must add no access latency")
	}
}

func TestCostScalesWithRows(t *testing.T) {
	small := DefaultCostConfig()
	big := DefaultCostConfig()
	big.RowsPerBank *= 2
	cs, cb := TableImplementation(small), TableImplementation(big)
	if cb.PerBankMM2 <= cs.PerBankMM2 {
		t.Error("table area must grow with row count")
	}
	if cb.AccessNs <= cs.AccessNs {
		t.Error("table latency must grow with entry count")
	}
}
