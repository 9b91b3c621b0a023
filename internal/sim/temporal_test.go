package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"svard/internal/obs"
	"svard/internal/temporal"
)

// diffTemporal is the differential-scale temporal process: epochs short
// enough that the adversarial legs cross dozens of epoch edges, drift
// and age aggressive enough that live thresholds move far below their
// calibration values and the tracker actually fires.
func diffTemporal() *temporal.Spec {
	return &temporal.Spec{EpochCycles: 65536, Drift: -0.05, Sigma: 0.1, DipP: 0.01, DipFactor: 0.5, AgeEpochs: 64}
}

// TestEngineDifferentialTemporal extends the differential matrix
// with the temporal row: with the live truth drifting at epoch edges,
// the cycle-skipping engine must still produce a bit-identical Result
// to the per-cycle reference loop across all five defenses, and the same
// epoch_advances and live_draws — proving that a jump over an epoch
// edge is exact: the tracker enters each closing row's epoch at the
// PRE's own cycle whichever engine ticked it (an edge entered late would
// sample different thresholds and diverge in Violations). The truncated
// case stops at a multiple of the epoch length, the one edge the
// end-of-run rule decides: a run that ticks cycles 0..MaxCycles-1 never
// reaches the edge at MaxCycles, under either engine.
func TestEngineDifferentialTemporal(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is seconds-scale")
	}
	type leg struct {
		defense, mix string
		maxCycles    uint64 // 0: diffBase's, run to the end
	}
	var legs []leg
	for _, defense := range append([]string{"none"}, DefenseNames...) {
		for mixName := range diffMixes() {
			legs = append(legs, leg{defense, mixName, 0})
		}
	}
	legs = append(legs, leg{"para", "attack:rrs", 3 * diffTemporal().EpochCycles})
	for _, l := range legs {
		name := fmt.Sprintf("%s/%s", l.defense, l.mix)
		if l.maxCycles != 0 {
			name += fmt.Sprintf("/truncated@%d", l.maxCycles)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel() // cases share only the concurrency-safe module cache and arena pool
			cfg := diffBase()
			cfg.Defense = l.defense
			cfg.Mix = diffMixes()[l.mix]
			cfg.Svard = l.defense != "none"
			cfg.Temporal = diffTemporal()
			if l.maxCycles != 0 {
				cfg.MaxCycles = l.maxCycles
			}
			var skipRec, naiveRec obs.Recorder
			skip, naive := runBothRecorded(t, cfg, &skipRec, &naiveRec)
			if !reflect.DeepEqual(skip, naive) {
				t.Errorf("engines diverged under temporal drift:\nskip:  %+v\nnaive: %+v", skip, naive)
			}
			if skip.Finished != (l.maxCycles == 0) {
				t.Errorf("finished = %v in %d cycles, want %v", skip.Finished, cfg.MaxCycles, l.maxCycles == 0)
			}
			sc, nc := skipRec.Counters, naiveRec.Counters
			if sc.EpochAdvances != nc.EpochAdvances || sc.LiveDraws != nc.LiveDraws {
				t.Errorf("epoch_advances %d, live_draws %d under the event engine; %d, %d under the reference loop",
					sc.EpochAdvances, sc.LiveDraws, nc.EpochAdvances, nc.LiveDraws)
			}
			if want := min(skip.Cycles, cfg.MaxCycles-1) / cfg.Temporal.EpochCycles; sc.EpochAdvances != want {
				t.Errorf("ended at cycle %d of %d: %d epoch edges crossed, want %d", skip.Cycles, cfg.MaxCycles, sc.EpochAdvances, want)
			}
		})
	}
}

// TestTemporalMovesOnlyViolations pins the calibration-view contract:
// defenses, Svärd remapping, and the whole performance side read ONLY
// the frozen calibration view, so attaching a temporal process may
// change nothing but the security tracker's violation count. IPC,
// Cycles, and every controller stat must be bit-identical between the
// static run and the drifted run of the same configuration. Both are
// forced full simulations (no twin memo): a drifted run replayed from
// another leg's stream would hold the contract by construction.
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
			static, err := runOn(newPoolState(), cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Temporal = diffTemporal()
			drifted, err := runOn(newPoolState(), cfg, nil, nil)
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

// FuzzTemporalMovesOnlyViolations is the stream-replay contract under
// the fuzzer: for any small configuration fuzzConfig names (run to the
// end) under any process, the static leg and two interval legs — the
// same cell at two calibration ages and two epoch lengths — simulate the
// same machine, so their full runs agree on IPC, Cycles, MC and
// Finished. Each leg replayed from another's stream is bit-identical to
// its own full run, with the same epoch_advances and live_draws: the
// first temporal leg from the static leg's stream, and the static leg
// and the second temporal leg (whose epoch length differs) from the
// first's. A finished recorder's legs must replay; a truncated one's must
// simulate; a defense-free static leg is a twin and is never served.
func FuzzTemporalMovesOnlyViolations(f *testing.F) {
	for d := uint64(0); d <= uint64(len(DefenseNames)); d++ {
		c := fuzzChoices{defense: d, nrh: d % 3, svard: d % 2, cores: 1, mix: [4]uint64{5, 2}}
		f.Add(fuzzSeed(c), -0.05, 0.1, 0.01, uint8(0), uint8(15), uint8(4))
		c.hbm2, c.mix = 1, [4]uint64{0, 3}
		f.Add(fuzzSeed(c), -0.01, 0.02, 0.0, uint8(16), uint8(47), uint8(2))
	}
	f.Add(fuzzSeed(fuzzChoices{defense: 5, svard: 1, cores: 1, mix: [4]uint64{6, 2}}), -0.1, 0.3, 0.05, uint8(3), uint8(60), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, drift, sigma, dipP float64, age, older, epochShift uint8) {
		// unit maps any float onto [0, 1), so every input is a valid process.
		unit := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return x - math.Floor(x)
		}
		proc := temporal.Spec{
			EpochCycles: 4096 << (epochShift % 5),
			Drift:       -0.1 + 0.2*unit(drift),
			Sigma:       0.3 * unit(sigma),
			DipP:        0.05 * unit(dipP),
			DipFactor:   0.5,
			AgeEpochs:   uint64(age),
		}
		cfg := fuzzConfig(seed)
		cfg.MaxCycles = fuzzConfig(0).MaxCycles
		static, first, second := cfg, cfg, cfg
		static.Temporal = nil
		first.Temporal = &proc
		other := proc
		other.AgeEpochs += 1 + uint64(older)
		other.EpochCycles *= 2
		second.Temporal = &other

		type run struct {
			res Result
			c   obs.Counters
		}
		do := func(cfg Config, memo *twinMemo) run {
			var rec obs.Recorder
			res, err := runOn(newPoolState(), cfg, &rec, memo)
			if err != nil {
				t.Fatal(err)
			}
			return run{res, rec.Counters}
		}
		// Each memo's recorder simulates in full: it finds no log held.
		fromStatic, fromFirst := &twinMemo{budget: 1 << 30}, &twinMemo{budget: 1 << 30} // hold any stream fuzzConfig names
		full := map[*Config]run{&static: do(static, fromStatic), &first: do(first, fromFirst), &second: do(second, nil)}
		s := full[&static].res
		for _, leg := range []*Config{&first, &second} {
			if r := full[leg].res; !reflect.DeepEqual(s.IPC, r.IPC) || s.Cycles != r.Cycles || s.MC != r.MC || s.Finished != r.Finished {
				t.Errorf("the static leg and age %d simulated different machines:\nstatic:   %+v\ntemporal: %+v", leg.Temporal.AgeEpochs, s, r)
			}
		}
		replay := func(memo *twinMemo, leg *Config) {
			got, want := do(*leg, memo), full[leg]
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("temporal=%v: the replay path diverged from the full run:\nreplay: %+v\nfull:   %+v", leg.Temporal, got.res, want.res)
			}
			if got.c.EpochAdvances != want.c.EpochAdvances || got.c.LiveDraws != want.c.LiveDraws {
				t.Errorf("temporal=%v: epoch_advances %d, live_draws %d on the replay path; %d, %d in the full run",
					leg.Temporal, got.c.EpochAdvances, got.c.LiveDraws, want.c.EpochAdvances, want.c.LiveDraws)
			}
			eligible := !isTwin(leg)
			if got.c.TwinReplays+got.c.TwinMissed != map[bool]uint64{true: 1}[eligible] || (got.c.TwinReplays == 1) != (eligible && s.Finished) {
				t.Errorf("temporal=%v finished=%v: twin_replays=%d twin_missed=%d", leg.Temporal, s.Finished, got.c.TwinReplays, got.c.TwinMissed)
			}
		}
		replay(fromStatic, &first)
		replay(fromFirst, &static)
		replay(fromFirst, &second)
	})
}

// TestZeroProcessIsStatic is a metamorphic check of the live view: a
// process that neither drifts, spreads nor dips leaves every row's live
// threshold at its calibration value whatever the age and the epoch, so
// every leg of both golden erosion shapes counts exactly its static
// leg's violations. The shapes' defenses keep their static legs clean,
// so the sweeps also run the defense-free grid and nRH 16, where the
// benchmark shape's static legs count violations. The temporal legs
// replay their static leg's stream or twin (TestTwinReplayMatchesFullRun
// holds that replay to the full run), so what is compared is the two
// trackers.
func TestZeroProcessIsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("erosion sweeps are seconds-scale")
	}
	violent := false
	for _, g := range goldenErosionSweeps() {
		t.Run(g.Name, func(t *testing.T) {
			jobs, err := ErosionJobs(ErosionOptions{
				Base:      g.Base,
				Process:   temporal.Spec{EpochCycles: g.Process.EpochCycles, DipFactor: g.Process.DipFactor},
				Intervals: g.Intervals, Mixes: g.Mixes,
				NRHs:     append(slices.Clone(g.NRHs), 16),
				Defenses: append(slices.Clone(g.Defenses), "none"),
			})
			if err != nil {
				t.Fatal(err)
			}
			memo := &twinMemo{budget: 1 << 30} // holds the attacked shape's streams
			results, err := RunJobs(context.Background(), 0, func(cfg Config) (Result, error) {
				return runOn(newPoolState(), cfg, nil, memo)
			}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			perGrid := len(jobs) / (1 + len(g.Intervals))
			for i, j := range jobs[perGrid:] {
				static := results[i%perGrid]
				violent = violent || static.Violations != 0
				if got := results[perGrid+i].Violations; got != static.Violations {
					t.Errorf("%s nRH=%v svard=%v mix=%v age=%d: %d violations under a zero process, %d static",
						j.Config.Defense, j.Config.NRH, j.Config.Svard, j.Config.Mix, j.Config.Temporal.AgeEpochs, got, static.Violations)
				}
			}
		})
	}
	if !violent {
		t.Error("no static leg counted a violation; the comparison is vacuous")
	}
}

// TestPoolDirtyTemporalReuse: an arena dirtied by a temporal run (epoch
// state advanced, threshold memo populated) must reset completely — a
// static run on it is bit-identical to fresh construction, and a second
// temporal run on it is bit-identical to a fresh temporal run. Every run
// is a full simulation (no twin memo), so the arena is what is tested.
func TestPoolDirtyTemporalReuse(t *testing.T) {
	st := newPoolState()
	run := func(st *poolState, cfg Config) Result {
		t.Helper()
		res, err := runOn(st, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	dirty := diffBase()
	dirty.Defense = "para"
	dirty.Mix = []string{"attack:hydra", "mcf06"}
	dirty.Temporal = diffTemporal()
	run(st, dirty)

	clean := diffBase()
	clean.Defense = "para"
	clean.Mix = []string{"attack:hydra", "mcf06"}
	if fresh, pooled := run(newPoolState(), clean), run(st, clean); !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("static run on a temporally dirtied arena diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}
	if fresh, pooled := run(newPoolState(), dirty), run(st, dirty); !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("temporal run on a dirtied arena diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
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
// samples them. The serial sweep simulates every cell in full (no twin
// memo); the parallel one records and replays through a private memo,
// whatever the other tests left in the process-wide one.
func TestErosionDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("erosion sweep is seconds-scale")
	}
	opt := erosionTestOptions()
	opt.Workers = 1
	opt.Runner = func(cfg Config) (Result, error) { return runOn(newPoolState(), cfg, nil, nil) }
	serial, err := RunErosionCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 7
	memo := &twinMemo{}
	opt.Runner = func(cfg Config) (Result, error) { return runOn(newPoolState(), cfg, nil, memo) }
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
		{"too many epochs", func(o *ErosionOptions) { o.Process.EpochCycles = o.Base.MaxCycles/maxEpochs - 1 }},
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
