package sim

import (
	"math"
	"testing"

	"svard/internal/temporal"
)

// choose consumes one byte of in and returns the value it picks from
// vals; an exhausted input picks vals[0].
func choose[T any](in *[]byte, vals ...T) T {
	if len(*in) == 0 {
		return vals[0]
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return vals[int(b)%len(vals)]
}

// FuzzValidatedConfigRuns: every Config that Validate accepts builds and
// runs. The fuzzer picks each sized field from values on both sides of
// Validate's limits — zero, negatives, each bound and the value past it —
// plus a defense, a backend, a mix and a temporal process; an accepted
// config must then run (capped at 10 000 cycles) without an
// error or a panic. The first seed is the smallest geometry Validate
// accepts: 64 rows of one cell.
func FuzzValidatedConfigRuns(f *testing.F) {
	f.Add([]byte{4, 3}) // RowsPerBank 64, CellsPerRow 1
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 3, 2, 1, 5, 4, 1, 1, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := tinyBase()
		cfg.InstrPerCore, cfg.WarmupPerCore = 3_000, 600
		cfg.RowsPerBank = choose(&in, 2048, 0, -64, 63, 64, 256, maxRowsPerBank+1)
		cfg.CellsPerRow = choose(&in, 2048, 0, -8, 1, maxCellsPerRow, maxCellsPerRow+1)
		cfg.MaxCycles = choose[uint64](&in, 80_000_000, 0, 1, 2, 65536, maxEpochs+1)
		cfg.WindowScale = choose(&in, 64, 0, -1, 0.5, 1e300, math.NaN(), math.Inf(1), math.Inf(-1))
		process := func(epoch uint64) *temporal.Spec {
			return &temporal.Spec{EpochCycles: epoch, Drift: -0.01, Sigma: 0.02}
		}
		cfg.Temporal = choose(&in, nil, process(65536), process(4096), process(1), process(0))
		cfg.Defense = choose(&in, append([]string{"none"}, DefenseNames...)...)
		cfg.Svard = choose(&in, false, true) && cfg.Defense != "none"
		cfg.Backend = choose(&in, "", "hbm2")
		cfg.Mix = choose(&in, []string{"mcf06", "ycsb-a"}, []string{"attack:rrs", "mcf06"}, []string{"attack:hydra", "lbm06"})
		cfg.NRH = choose(&in, 1024.0, 64)
		if cfg.Validate() != nil {
			return
		}
		// A live draw costs O(epochs elapsed): at one cycle per epoch the
		// cap keeps an input's run near a second.
		cfg.MaxCycles = min(cfg.MaxCycles, 10_000)
		if _, err := testEnv(nil).runOn(newPoolState(), cfg, nil); err != nil {
			t.Fatalf("validated config did not run: %v\n%+v", err, cfg)
		}
	})
}
