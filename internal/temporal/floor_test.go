package temporal

import (
	"math"
	"testing"

	"svard/internal/rng"
)

// checkFloor holds one (process, row, epoch) to the floor's contract.
func checkFloor(t *testing.T, p Process, bank, row int, epoch uint64) (factor, floor float64) {
	t.Helper()
	factor, floor = p.Factor(bank, row, epoch), p.FactorFloor(epoch)
	if math.IsNaN(factor) || math.IsNaN(floor) || floor < 0 {
		t.Fatalf("%v seed %d (%d,%d)@%d: Factor = %v, FactorFloor = %v", p.spec, p.seed, bank, row, epoch, factor, floor)
	}
	if factor < floor {
		t.Fatalf("%v seed %d (%d,%d)@%d: Factor = %v is below FactorFloor = %v", p.spec, p.seed, bank, row, epoch, factor, floor)
	}
	return factor, floor
}

// TestFactorFloorIsALowerBound walks a seeded grid over everything
// Spec.Validate admits — drift and sigma out to ±8, no dip / a rare dip
// / a certain one down to a factor of 1e-6, profiles 0 to 10^4 epochs
// old, 0 to 256 epochs into the run, many rows — and requires
// Factor >= FactorFloor at every point. sigma = 0 makes the walk
// deterministic, so there the floor sits one slack below the factor
// itself and any rounding the slack failed to cover would show; the
// corners push exp past both ends of its range, and the test insists it
// saw them.
func TestFactorFloorIsALowerBound(t *testing.T) {
	type dip struct{ p, factor float64 }
	r := rng.New(20)
	var points, underflowed, overflowed, flushed int
	for _, drift := range []float64{-8, -1, -0.05, -0.01, 0, 0.01, 0.5, 8} {
		for _, sigma := range []float64{0, 1e-9, 0.02, 0.1, 1, 8} {
			for _, d := range []dip{{}, {0.01, 0.5}, {0.5, 1}, {1, 1e-6}} {
				for _, age := range []uint64{0, 1, 16, 64, 10_000} {
					spec := Spec{EpochCycles: 1, Drift: drift, Sigma: sigma, DipP: d.p, DipFactor: d.factor, AgeEpochs: age}
					if err := spec.Validate(); err != nil {
						t.Fatal(err)
					}
					p := NewProcess(spec, r.Uint64())
					for _, epoch := range []uint64{0, 1, 2, 5, 17, 64, 256} {
						for i := 0; i < 8; i++ {
							factor, floor := checkFloor(t, p, r.Intn(32), r.Intn(1<<17), epoch)
							points++
							switch {
							case factor == 0:
								underflowed++
							case math.IsInf(factor, 1):
								overflowed++
							}
							if floor == 0 {
								flushed++
							}
						}
					}
				}
			}
		}
	}
	if underflowed == 0 || overflowed == 0 || flushed == 0 {
		t.Errorf("%d points: %d factors underflowed, %d overflowed, %d floors were 0; the grid must reach all three", points, underflowed, overflowed, flushed)
	}
}

// TestFactorFloorIsTight: a bound of 0 would pass the test above. Where
// nothing is random (sigma = 0, no dip) the floor is the factor less its
// slack, and under the benchmark's process (bench/workloads.go) it keeps
// the values EXPERIMENTS.md quotes: ~0.40 of calibration five epochs in,
// ~1 % at 25 — where a threshold in the hundreds stops clearing a
// victim's 0.5–3 accrued hammers, the horizon the docs state.
func TestFactorFloorIsTight(t *testing.T) {
	for _, spec := range []Spec{
		{EpochCycles: 1, Drift: -0.01},
		{EpochCycles: 1, Drift: 0.3, AgeEpochs: 64},
		{EpochCycles: 1, Drift: -8, AgeEpochs: 3},
	} {
		p := NewProcess(spec, 1)
		for _, epoch := range []uint64{0, 5, 80} {
			factor, floor := checkFloor(t, p, 0, 0, epoch)
			if factor > 0 && !math.IsInf(factor, 1) && floor < factor*(1-1e-6) {
				t.Errorf("%v @%d: floor %v gives up more than 1e-6 of the deterministic factor %v", spec, epoch, floor, factor)
			}
		}
	}
	bench := NewProcess(Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02}, 1)
	for _, want := range []struct {
		epoch  uint64
		lo, hi float64
	}{{0, 0.999999, 1}, {5, 0.40, 0.41}, {25, 0.010, 0.011}} {
		if f := bench.FactorFloor(want.epoch); f < want.lo || f > want.hi {
			t.Errorf("benchmark process: FactorFloor(%d) = %v, want in [%v, %v]", want.epoch, f, want.lo, want.hi)
		}
	}
}
