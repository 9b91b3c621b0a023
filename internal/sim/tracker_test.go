package sim

import (
	"slices"
	"testing"

	"svard/internal/disturb"
	"svard/internal/obs"
	"svard/internal/rng"
	"svard/internal/temporal"
)

// TestTrackerFloorMatchesExact is the floor's differential: two
// secTrackers over one module receive one seeded command stream — ACTs,
// PREs concentrated on a few aggressors (so victims really cross), REFs,
// row swaps — and one clock that crosses 80 epoch edges. The reference
// has its view's floor held at 0 by the test, so each of its comparisons
// draws the row's threshold and decides against it, exactly as the
// tracker did before it had a floor; the other runs as shipped.
// Violations and the whole accrual table must agree after every call.
//
// Three processes: the benchmark's (bench/workloads.go — the floor
// settles nearly everything early on, then decays), a dip-heavy one
// whose floor carries the dip factor from the first epoch, and the
// differential matrix's, 64 epochs old at a large sigma: its floor is
// ~e^-10 before the run starts, settles nothing, and the two trackers
// must then make the very same draws.
func TestTrackerFloorMatchesExact(t *testing.T) {
	const (
		banks  = 2
		nRH    = 64
		calls  = 60_000
		epochs = 80
		epoch  = 4096 // cycles
	)
	base := tinyBase()
	entry, err := buildModule(base.ModuleLabel, base.RowsPerBank, base.CellsPerRow, banks, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	model := disturb.NewModel(entry.mod.Params, entry.mod.Geom)
	factor := entry.prof.ScaledTo(nRH).Factor
	rows := base.RowsPerBank

	for _, tc := range []struct {
		name    string
		spec    temporal.Spec
		settles bool // the floor proves some comparisons unnecessary
	}{
		{"benchmark", temporal.Spec{Drift: -0.01, Sigma: 0.02}, true},
		{"dips", temporal.Spec{Drift: 0.01, Sigma: 0.05, DipP: 0.4, DipFactor: 0.1, AgeEpochs: 3}, true},
		{"aged", *diffTemporal(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.EpochCycles = epoch
			proc := temporal.NewProcess(spec, base.Seed)
			newTracker := func() *secTracker {
				tr := newSecTracker(model, entry.hcBase, entry.psi, factor, base.CPUGHz, banks, banks)
				tr.startTemporal(proc, spec.EpochCycles)
				return tr
			}
			floored, exact := newTracker(), newTracker()
			exact.live.floor = 0

			r := rng.New(20)
			hot := make([]int, 12) // aggressors that take most of the closings
			for i := range hot {
				hot[i] = r.Intn(banks * rows)
			}
			cycle := uint64(0)
			for i := 0; i < calls; i++ {
				cycle += uint64(r.Intn(2 * epochs * epoch / calls))
				floored.tickEpoch(cycle)
				exact.tickEpoch(cycle)
				exact.live.floor = 0 // tickEpoch refreshed it

				at := r.Intn(banks * rows)
				if r.Intn(4) != 0 {
					at = hot[r.Intn(len(hot))]
				}
				bank, row := at/rows, at%rows
				var call func(*secTracker)
				switch op := r.Intn(100); {
				case op < 80:
					on := uint64(100 + 50*r.Intn(8))
					call = func(tr *secTracker) { tr.OnPre(bank, row, on) }
				case op < 90:
					call = func(tr *secTracker) { tr.OnAct(bank, row, cycle) }
				case op < 95:
					first, count := r.Intn(rows), 1+r.Intn(8)
					call = func(tr *secTracker) { tr.OnRefresh(0, first, count) }
				default:
					other := r.Intn(rows)
					call = func(tr *secTracker) { tr.OnRowsSwapped(bank, row, other) }
				}
				call(floored)
				call(exact)
				if floored.Violations != exact.Violations {
					t.Fatalf("call %d (epoch %d): %d violations with the floor, %d without", i, exact.live.epoch, floored.Violations, exact.Violations)
				}
				if !slices.Equal(floored.cur, exact.cur) {
					t.Fatalf("call %d (epoch %d): accrual tables diverged", i, exact.live.epoch)
				}
			}
			if got := exact.epochAdvances(); got < 64 || got != floored.epochAdvances() {
				t.Errorf("crossed %d epoch edges (floored twin %d), want the same >= 64", got, floored.epochAdvances())
			}
			if exact.Violations == 0 {
				t.Error("the stream crossed no threshold: the exact comparison was never the one that decided")
			}
			if with, without := floored.liveDraws(), exact.liveDraws(); (with < without) != tc.settles || with > without {
				t.Errorf("%d draws with the floor, %d without; the floor should settle some: %v", with, without, tc.settles)
			}
			t.Logf("%d violations; draws %d with the floor, %d without", exact.Violations, floored.liveDraws(), exact.liveDraws())
		})
	}
}

// TestLiveDrawsCounter: live_draws reaches the flight recorder, is 0 on
// a static cell, ~0 on a cell of the benchmark's erosion shape (a handful
// of epochs under a mild process: the floor settles every comparison)
// and large once the floor has decayed (the differential matrix's
// process starts 64 epochs old), where it says why the cell is slow.
func TestLiveDrawsCounter(t *testing.T) {
	draws := func(spec *temporal.Spec) (uint64, uint64) {
		cfg := tinyBase()
		cfg.Defense, cfg.NRH, cfg.Mix = "para", 64, []string{"mcf06", "ycsb-a"}
		cfg.Temporal = spec
		var rec obs.Recorder
		if _, err := RunRecorded(cfg, &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Counters.LiveDraws, rec.Counters.EpochAdvances
	}
	if d, e := draws(nil); d != 0 || e != 0 {
		t.Errorf("static cell: %d live draws over %d epoch edges, want 0 and 0", d, e)
	}
	mild, edges := draws(&temporal.Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02})
	if edges == 0 || mild > 100 {
		t.Errorf("benchmark-shaped cell: %d live draws over %d epoch edges, want ~0 over some", mild, edges)
	}
	if decayed, _ := draws(diffTemporal()); decayed < 1000 {
		t.Errorf("aged process: %d live draws, want thousands (its floor settles nothing)", decayed)
	}
}
