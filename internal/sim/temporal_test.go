package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"svard/internal/temporal"
)

// diffTemporal is the differential-scale temporal process: epochs short
// enough that the adversarial legs cross dozens of epoch edges, drift
// and age aggressive enough that live thresholds move far below their
// calibration values and the tracker actually fires.
func diffTemporal() *temporal.Spec {
	return &temporal.Spec{EpochCycles: 65536, Drift: -0.05, Sigma: 0.1, DipP: 0.01, DipFactor: 0.5, AgeEpochs: 64}
}

// TestEngineDifferentialTemporal extends the NoSkip differential matrix
// with the temporal row: with the live truth drifting at epoch edges,
// the cycle-skipping engine must still produce a bit-identical Result
// to the per-cycle reference loop across all five defenses — proving
// the epoch-edge bound folded into NextEvent is exact (a skipped edge
// would sample different thresholds and diverge in Violations).
func TestEngineDifferentialTemporal(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is seconds-scale")
	}
	defenses := append([]string{"none"}, DefenseNames...)
	for _, defense := range defenses {
		for mixName, mix := range diffMixes() {
			name := fmt.Sprintf("%s/%s", defense, mixName)
			t.Run(name, func(t *testing.T) {
				t.Parallel() // cases share only the concurrency-safe module cache and arena pool
				cfg := diffBase()
				cfg.Defense = defense
				cfg.Mix = mix
				cfg.Svard = defense != "none"
				cfg.Temporal = diffTemporal()
				skip, naive := runBoth(t, cfg)
				if !reflect.DeepEqual(skip, naive) {
					t.Errorf("engines diverged under temporal drift:\nskip:  %+v\nnaive: %+v", skip, naive)
				}
				if !skip.Finished {
					t.Errorf("differential case did not finish in %d cycles", cfg.MaxCycles)
				}
			})
		}
	}
}

// TestTemporalMovesOnlyViolations pins the calibration-view contract:
// defenses, Svärd remapping, and the whole performance side read ONLY
// the frozen calibration view, so attaching a temporal process may
// change nothing but the security tracker's violation count. IPC,
// Cycles, and every controller stat must be bit-identical between the
// static run and the drifted run of the same configuration.
func TestTemporalMovesOnlyViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("temporal contract matrix is seconds-scale")
	}
	moved := false
	for _, defense := range []string{"none", "para", "hydra"} {
		for mixName, mix := range diffMixes() {
			cfg := diffBase()
			cfg.Defense = defense
			cfg.Mix = mix
			cfg.Svard = defense != "none"
			static, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Temporal = diffTemporal()
			drifted, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := defense + "/" + mixName
			if !reflect.DeepEqual(static.IPC, drifted.IPC) || static.Cycles != drifted.Cycles ||
				static.MC != drifted.MC || static.Finished != drifted.Finished {
				t.Errorf("%s: temporal drift leaked into the performance side:\nstatic:  %+v\ndrifted: %+v",
					name, static, drifted)
			}
			if drifted.Violations != static.Violations {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("aggressive drift changed no violation count anywhere; the live view is not reaching the tracker")
	}
}

// TestPoolDirtyTemporalReuse: an arena dirtied by a temporal run (epoch
// state advanced, threshold memo populated) must reset completely — a
// static run on it is bit-identical to fresh construction, and a second
// temporal run on it is bit-identical to a fresh temporal run.
func TestPoolDirtyTemporalReuse(t *testing.T) {
	pool := &arenaPool{}

	dirty := diffBase()
	dirty.Defense = "para"
	dirty.Mix = []string{"attack:hydra", "mcf06"}
	dirty.Temporal = diffTemporal()
	if _, err := pool.run(dirty, nil); err != nil {
		t.Fatal(err)
	}

	clean := diffBase()
	clean.Defense = "para"
	clean.Mix = []string{"attack:hydra", "mcf06"}
	fresh, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := pool.run(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("static run on a temporally dirtied arena diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}

	freshTemporal, err := Run(dirty)
	if err != nil {
		t.Fatal(err)
	}
	pooledTemporal, err := pool.run(dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshTemporal, pooledTemporal) {
		t.Errorf("temporal run on a dirtied arena diverged:\nfresh:  %+v\npooled: %+v", freshTemporal, pooledTemporal)
	}
}

// erosionTestOptions is the test-scale margin-erosion sweep: parameters
// chosen so the para defense is statically violation-free at the
// smallest swept nRH, stays clean when freshly calibrated (interval 0),
// and measurably erodes at the longer re-calibration intervals.
func erosionTestOptions() ErosionOptions {
	return ErosionOptions{
		Base:      diffBase(),
		Process:   temporal.Spec{EpochCycles: 65536, Drift: -0.03, Sigma: 0.05},
		Intervals: []uint64{0, 16, 64},
		Mixes:     [][]string{{"lbm06", "libquantum06"}, {"attack:hydra", "mcf06"}},
		NRHs:      []float64{1024, 256, 64},
		Defenses:  []string{"para"},
	}
}

// TestErosionMarginShifts is the headline acceptance check: under a
// drifting live truth, the margin-erosion report shows the defense's
// violation-free nRH threshold moving away from its calibration-time
// value as the re-calibration interval grows, with bitflips at the
// stale operating point.
func TestErosionMarginShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("erosion sweep is seconds-scale")
	}
	cells, err := RunErosionCtx(context.Background(), erosionTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1*2*3 {
		t.Fatalf("got %d cells, want %d", len(cells), 6)
	}
	byKey := map[string]ErosionCell{}
	for _, c := range cells {
		byKey[fmt.Sprintf("%s/%s/%d", c.Defense, c.Config, c.Interval)] = c
	}
	fresh := byKey["para/NoSvard/0"]
	if fresh.CalibNRH == 0 {
		t.Fatal("para has no statically violation-free swept nRH; the erosion baseline is meaningless")
	}
	if fresh.Shift != 1 || fresh.Violations != 0 {
		t.Errorf("freshly calibrated interval 0: shift %v with %d violations, want a clean 1.0x",
			fresh.Shift, fresh.Violations)
	}
	stale := byKey["para/NoSvard/64"]
	if stale.LiveNRH == fresh.CalibNRH {
		t.Error("64-epoch-stale calibration shows no threshold shift; drift is not eroding the margin")
	}
	if stale.Violations == 0 {
		t.Error("64-epoch-stale calibration produces no bitflips at the calibrated operating point")
	}
}

// TestErosionDeterministicAcrossWorkers: the margin-erosion report is
// bit-identical for any Workers value — the same guarantee RunFig12
// gives, extended to the temporal legs whose trajectories must be pure
// functions of (seed, bank, row, epoch) regardless of which worker
// samples them.
func TestErosionDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("erosion sweep is seconds-scale")
	}
	opt := erosionTestOptions()
	opt.Workers = 1
	serial, err := RunErosionCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 7
	parallel, err := RunErosionCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("erosion cells differ across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestErosionJobsValidate: the sweep rejects option combinations whose
// fold would be meaningless, before any simulation runs.
func TestErosionJobsValidate(t *testing.T) {
	cases := []struct {
		name    string
		breakIt func(*ErosionOptions)
	}{
		{"invalid process", func(o *ErosionOptions) { o.Process.EpochCycles = 0 }},
		{"negative sigma", func(o *ErosionOptions) { o.Process.Sigma = -1 }},
		{"process owns age", func(o *ErosionOptions) { o.Process.AgeEpochs = 4 }},
		{"base already temporal", func(o *ErosionOptions) { o.Base.Temporal = &temporal.Spec{EpochCycles: 1} }},
		{"duplicate interval", func(o *ErosionOptions) { o.Intervals = []uint64{0, 16, 16} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := erosionTestOptions()
			tc.breakIt(&opt)
			if _, err := ErosionJobs(opt); err == nil {
				t.Error("ErosionJobs accepted an invalid option set")
			}
		})
	}
	if _, err := ErosionJobs(erosionTestOptions()); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}
