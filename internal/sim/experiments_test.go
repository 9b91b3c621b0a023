package sim

import (
	"context"
	"testing"
)

func tinyBase() Config {
	base := DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 20_000
	base.WarmupPerCore = 4_000
	return base
}

func TestRunFig12ShapesHold(t *testing.T) {
	cells, err := RunFig12Ctx(context.Background(), Fig12Options{
		Base:     tinyBase(),
		Mixes:    [][]string{{"mcf06", "ycsb-a"}},
		NRHs:     []float64{2048, 64},
		Defenses: []string{"rrs"},
		Profiles: []string{"S0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig12Cell{}
	for _, c := range cells {
		byKey[c.Config+"@"+itoa(int(c.NRH))] = c
		if c.Violations != 0 {
			t.Errorf("%s@%v: %d bitflips", c.Config, c.NRH, c.Violations)
		}
		if c.WS <= 0 || c.WS > 1.2 {
			t.Errorf("%s@%v: WS = %v", c.Config, c.NRH, c.WS)
		}
		if c.HS > c.WS+1e-9 {
			t.Errorf("%s@%v: HS %v above WS %v", c.Config, c.NRH, c.HS, c.WS)
		}
		if c.WSMin > c.WS+1e-9 || c.WSMax < c.WS-1e-9 {
			t.Errorf("%s@%v: span does not bracket mean", c.Config, c.NRH)
		}
	}
	// Obsv. 14: Svärd improves the defense at low thresholds, and the
	// overhead grows as the threshold shrinks.
	no64, sv64 := byKey["NoSvard@64"], byKey["Svard-S0@64"]
	if sv64.WS <= no64.WS {
		t.Errorf("Svärd did not help at 64: %v vs %v", sv64.WS, no64.WS)
	}
	no2k := byKey["NoSvard@2048"]
	if no64.WS >= no2k.WS {
		t.Errorf("overhead did not grow toward low thresholds: %v vs %v", no64.WS, no2k.WS)
	}
}

func TestRunFig13Shapes(t *testing.T) {
	cells, err := RunFig13Ctx(context.Background(), Fig13Options{
		Base:     tinyBase(),
		NRH:      64,
		Benign:   []string{"mcf06"},
		Profiles: []string{"S0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 { // 2 defenses x (NoSvard + Svard-S0)
		t.Fatalf("cells = %d", len(cells))
	}
	rel := map[string]float64{}
	for _, c := range cells {
		if c.Config == "NoSvard" && c.RelToNoSvard != 1 {
			t.Errorf("NoSvard relative slowdown = %v", c.RelToNoSvard)
		}
		if c.Config == "Svard-S0" {
			rel[c.Defense] = c.RelToNoSvard
			// Takeaway 9: Svärd never makes the adversarial slowdown worse.
			if c.RelToNoSvard > 1.02 {
				t.Errorf("%s: Svärd worsened the attack: %v", c.Defense, c.RelToNoSvard)
			}
		}
	}
	// Obsv. 16/17 shape: RRS benefits far more than Hydra.
	if rel["rrs"] >= rel["hydra"] {
		t.Errorf("RRS relative slowdown (%v) not below Hydra's (%v)", rel["rrs"], rel["hydra"])
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
