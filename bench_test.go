// Package svard's root benchmarks regenerate every table and figure of
// the paper at bench scale: each benchmark is the scaled-down driver of
// one experiment (see DESIGN.md §3 for the index and EXPERIMENTS.md for
// the scaling rationale). The cmd/ binaries run the same experiments at
// full size.
package svard

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"svard/internal/charz"
	"svard/internal/core"
	"svard/internal/obs"
	"svard/internal/population"
	"svard/internal/profile"
	"svard/internal/sim"
	"svard/internal/temporal"
)

// benchModule memoizes small calibrated modules across benchmarks.
var benchModules sync.Map

func benchModule(b *testing.B, label string) *profile.Module {
	b.Helper()
	if m, ok := benchModules.Load(label); ok {
		return m.(*profile.Module)
	}
	spec, ok := profile.SpecByLabel(label)
	if !ok {
		b.Fatalf("unknown module %s", label)
	}
	m, err := profile.BuildScaled(spec, 1, 2048, 2048)
	if err != nil {
		b.Fatal(err)
	}
	benchModules.Store(label, m)
	return m
}

// BenchmarkTable5ModuleInventory regenerates Table 5's per-module
// HCfirst statistics.
func BenchmarkTable5ModuleInventory(b *testing.B) {
	m := benchModule(b, "H0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride 1: the module minimum lives in a single row, so exact
		// Table 5 matching requires visiting every row.
		row := charz.Table5(m, 1)
		if row.MinHC != m.Spec.MinHC {
			b.Fatalf("min = %v", row.MinHC)
		}
	}
}

// BenchmarkFig3BERAcrossBanks regenerates Fig. 3's per-bank BER boxes.
func BenchmarkFig3BERAcrossBanks(b *testing.B) {
	m := benchModule(b, "M1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := charz.Fig3(m, 4)
		if len(d.Banks) != 4 {
			b.Fatal("banks missing")
		}
	}
}

// BenchmarkFig4BERByLocation regenerates Fig. 4's location series.
func BenchmarkFig4BERByLocation(b *testing.B) {
	m := benchModule(b, "S4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := charz.Fig4(m, 128); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig5HCFirstDistribution regenerates Fig. 5's histogram.
func BenchmarkFig5HCFirstDistribution(b *testing.B) {
	m := benchModule(b, "S0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if levels := charz.Fig5(m, 2); len(levels) != 14 {
			b.Fatal("levels missing")
		}
	}
}

// BenchmarkFig6HCFirstByLocation regenerates Fig. 6's scatter.
func BenchmarkFig6HCFirstByLocation(b *testing.B) {
	m := benchModule(b, "H4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := charz.Fig6(m, 128); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig7RowPress regenerates Fig. 7's on-time sweep.
func BenchmarkFig7RowPress(b *testing.B) {
	m := benchModule(b, "H2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxes := charz.Fig7(m, 4)
		if boxes[2].Summary.Mean >= boxes[0].Summary.Mean {
			b.Fatal("RowPress shape broken")
		}
	}
}

// BenchmarkFig8SubarrayClustering regenerates Fig. 8's silhouette sweep.
func BenchmarkFig8SubarrayClustering(b *testing.B) {
	m := benchModule(b, "S2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := charz.Fig8(m, 3)
		if d.BestK != d.TruthK {
			b.Fatalf("best k %d != truth %d", d.BestK, d.TruthK)
		}
	}
}

// BenchmarkFig9SpatialFeatureF1 regenerates Fig. 9's correlation curve.
func BenchmarkFig9SpatialFeatureF1(b *testing.B) {
	m := benchModule(b, "S1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := charz.Fig9(m); len(d.Fraction) == 0 {
			b.Fatal("empty curve")
		}
	}
}

// BenchmarkTable3CorrelatedFeatures regenerates Table 3's membership.
func BenchmarkTable3CorrelatedFeatures(b *testing.B) {
	mS := benchModule(b, "S4")
	mM := benchModule(b, "M4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(charz.Fig9(mS).Strong) == 0 {
			b.Fatal("S4 lost its strong feature")
		}
		if len(charz.Fig9(mM).Strong) != 0 {
			b.Fatal("M4 gained a strong feature")
		}
	}
}

// BenchmarkFig10Aging regenerates Fig. 10's aging transitions.
func BenchmarkFig10Aging(b *testing.B) {
	m := benchModule(b, "H3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cells := charz.Fig10(m, 68, 2); len(cells) == 0 {
			b.Fatal("no transitions")
		}
	}
}

// BenchmarkSection64HardwareCost regenerates §6.4's cost arithmetic.
func BenchmarkSection64HardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tc := core.TableImplementation(core.DefaultCostConfig())
		if tc.PerBankMM2 < 0.05 || tc.PerBankMM2 > 0.06 {
			b.Fatalf("per-bank area %v", tc.PerBankMM2)
		}
		dc := core.DRAMBitsImplementation(core.DefaultCostConfig())
		if dc.ArrayOverheadFrac <= 0 {
			b.Fatal("bad overhead")
		}
	}
}

// benchFig12 runs one Fig. 12 defense column at bench scale.
func benchFig12(b *testing.B, defense string) {
	b.Helper()
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 15_000
	base.WarmupPerCore = 3_000
	opt := sim.Fig12Options{
		Base:     base,
		Mixes:    [][]string{{"mcf06", "ycsb-a"}},
		NRHs:     []float64{1024, 64},
		Defenses: []string{defense},
		Profiles: []string{"S0"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := sim.RunFig12Ctx(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Violations != 0 {
				b.Fatalf("%s: %d bitflips", c.Config, c.Violations)
			}
		}
	}
}

// BenchmarkFig12AQUA..RRS regenerate Fig. 12, one defense per bench.
func BenchmarkFig12AQUA(b *testing.B)        { benchFig12(b, "aqua") }
func BenchmarkFig12BlockHammer(b *testing.B) { benchFig12(b, "blockhammer") }
func BenchmarkFig12Hydra(b *testing.B)       { benchFig12(b, "hydra") }
func BenchmarkFig12PARA(b *testing.B)        { benchFig12(b, "para") }
func BenchmarkFig12RRS(b *testing.B)         { benchFig12(b, "rrs") }

// benchFig12Sweep runs a multi-cell Fig. 12 sweep (2 defenses x 3 nRH
// values x NoSvard/Svärd, 12 cell simulations + 1 baseline) with the
// given worker count. The Serial/Parallel pair below documents the
// exec-pool speedup: on an N-core runner the Parallel variant should
// approach N x the Serial wall-clock (>= 2x on 4 cores), with
// bit-identical cells — see EXPERIMENTS.md, "parallel sweeps". The
// NoSkip variant drives the same sweep through the per-cycle reference
// loop; Serial vs NoSkip documents the event engine's cycle-skipping
// speedup (>= 2x on the default spec, bit-identical cells — see
// EXPERIMENTS.md, "event-driven engine").
func benchFig12Sweep(b *testing.B, workers int, noSkip bool, backend string, tspec *temporal.Spec, rec *obs.Recorder) {
	b.Helper()
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 15_000
	base.WarmupPerCore = 3_000
	base.NoSkip = noSkip
	base.Backend = backend
	base.Temporal = tspec
	opt := sim.Fig12Options{
		Base:     base,
		Mixes:    [][]string{{"mcf06", "ycsb-a"}},
		NRHs:     []float64{1024, 256, 64},
		Defenses: []string{"para", "rrs"},
		Profiles: []string{"S0"},
		Workers:  workers,
	}
	if rec != nil {
		// One shared recorder across the whole sweep (serial only — a
		// Recorder is not concurrency-safe): the closure is created once
		// out here, so recording stays inside the allocation budget.
		opt.Runner = func(cfg sim.Config) (sim.Result, error) { return sim.PooledRunRecorded(cfg, rec) }
	}
	// Warm the module cache (and the run-state pool) so the timed region
	// measures the simulation fan-out, not the one-off module
	// calibration or the first-cell arena growth.
	if _, err := sim.RunFig12Ctx(context.Background(), opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := sim.RunFig12Ctx(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 12 {
			b.Fatalf("cells = %d", len(cells))
		}
	}
}

// BenchmarkFig12SweepSerial is the Workers=1 reference for the sweep.
// It runs with a flight recorder attached, so the reported allocs/op
// holds the telemetry layer to the same allocation-flat budget as the
// sweep itself.
func BenchmarkFig12SweepSerial(b *testing.B) {
	rec := &obs.Recorder{}
	benchFig12Sweep(b, 1, false, "", nil, rec)
	if rec.Counters.Ticks == 0 {
		b.Fatal("recorder attached but recorded nothing")
	}
}

// BenchmarkFig12SweepParallel fans the same sweep across all cores.
func BenchmarkFig12SweepParallel(b *testing.B) {
	benchFig12Sweep(b, runtime.GOMAXPROCS(0), false, "", nil, nil)
}

// BenchmarkFig12SweepSerialNoSkip is the per-cycle reference loop on
// the Serial sweep: the denominator of the event engine's speedup.
func BenchmarkFig12SweepSerialNoSkip(b *testing.B) { benchFig12Sweep(b, 1, true, "", nil, nil) }

// BenchmarkFig12SweepSerialHBM2 is the Serial sweep on the hbm2 preset:
// four pseudo-channel controllers per machine instead of one, so it
// tracks the multi-channel backend's cost (routing, per-channel defense
// instances, the widened NextEvent bound) release over release.
func BenchmarkFig12SweepSerialHBM2(b *testing.B) { benchFig12Sweep(b, 1, false, "hbm2", nil, nil) }

// BenchmarkFig12SweepSerialTemporal is the Serial sweep with a mild
// temporal process attached: every leg crosses epoch edges and samples
// live thresholds through the per-row memo, so Serial vs SerialTemporal
// tracks the epoch-table overhead (edge ticks, memo fills, the
// NextEvent epoch bound) release over release. The process is gentle on
// purpose — it should move thresholds, not trigger a violation storm
// that would make the benchmark measure tracker bookkeeping instead.
func BenchmarkFig12SweepSerialTemporal(b *testing.B) {
	benchFig12Sweep(b, 1, false, "", &temporal.Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02}, nil)
}

// BenchmarkPopulationSweep runs the Monte Carlo confidence-band sweep
// over a small synthetic population at bench scale. Unlike the Fig. 12
// sweep benches, each iteration pays the per-module calibration again:
// the population path evicts every chunk's module tables after folding
// (the property that keeps a 10K-chip sweep in constant memory), so
// recalibration IS the representative cost profile of a population
// sweep.
func BenchmarkPopulationSweep(b *testing.B) {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 15_000
	base.WarmupPerCore = 3_000
	opt := sim.PopulationOptions{
		Base:       base,
		Population: population.Ref{Seed: 1, Size: 4},
		Mixes:      [][]string{{"mcf06", "ycsb-a"}},
		NRHs:       []float64{64},
		Defenses:   []string{"para"},
		Chunk:      2,
		Workers:    1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := sim.RunPopulationCtx(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 2 || cells[0].Modules != 4 {
			b.Fatalf("bands = %+v", cells)
		}
	}
}

// BenchmarkFig13Adversarial regenerates Fig. 13 at bench scale.
func BenchmarkFig13Adversarial(b *testing.B) {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 15_000
	base.WarmupPerCore = 3_000
	opt := sim.Fig13Options{
		Base:     base,
		NRH:      64,
		Benign:   []string{"mcf06"},
		Profiles: []string{"S0"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := sim.RunFig13Ctx(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}
