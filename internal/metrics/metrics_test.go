package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdenticalRunsScoreOne(t *testing.T) {
	cores := []PerCore{{1.5, 1.5}, {0.2, 0.2}, {0.9, 0.9}}
	if ws := WeightedSpeedup(cores); math.Abs(ws-1) > 1e-12 {
		t.Errorf("WS = %v, want 1", ws)
	}
	if hs := HarmonicSpeedup(cores); math.Abs(hs-1) > 1e-12 {
		t.Errorf("HS = %v, want 1", hs)
	}
	if ms := MaxSlowdown(cores); math.Abs(ms-1) > 1e-12 {
		t.Errorf("MS = %v, want 1", ms)
	}
}

func TestKnownSlowdown(t *testing.T) {
	// One core at half speed, one untouched.
	cores := []PerCore{{1.0, 0.5}, {1.0, 1.0}}
	if ws := WeightedSpeedup(cores); math.Abs(ws-0.75) > 1e-12 {
		t.Errorf("WS = %v, want 0.75", ws)
	}
	// Harmonic: 2 / (2 + 1) = 0.666...
	if hs := HarmonicSpeedup(cores); math.Abs(hs-2.0/3.0) > 1e-12 {
		t.Errorf("HS = %v, want 2/3", hs)
	}
	if ms := MaxSlowdown(cores); math.Abs(ms-2) > 1e-12 {
		t.Errorf("MS = %v, want 2", ms)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if WeightedSpeedup(nil) != 0 || HarmonicSpeedup(nil) != 0 || MaxSlowdown(nil) != 0 {
		t.Error("empty inputs must score 0")
	}
	if s := (PerCore{1, 0}).Slowdown(); s != 0 {
		t.Errorf("zero-IPC slowdown = %v", s)
	}
}

// Property: harmonic speedup never exceeds weighted speedup (AM-HM
// inequality on normalized IPCs), and both lie in (0, max ratio].
func TestQuickHarmonicLEWeighted(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		cores := make([]PerCore, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			b := float64(raw[i])/32 + 0.1
			v := float64(raw[i+1])/32 + 0.1
			cores = append(cores, PerCore{BaselineIPC: b, IPC: v})
		}
		ws, hs := WeightedSpeedup(cores), HarmonicSpeedup(cores)
		return hs <= ws+1e-9 && ws > 0 && hs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
