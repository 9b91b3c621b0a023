package sim

import (
	"math"
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
// row swaps — whose clock crosses 80 epoch edges. The reference's view
// enters each epoch before its tracker's own crossing at a PRE would,
// and the test holds its floor at 0, so each of its comparisons draws
// the row's threshold and decides against it, exactly as the tracker
// did before it had a floor; the other runs as shipped.
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
			cycle := uint64(512) // every PRE's ACT is at cycle-on >= 0
			for i := 0; i < calls; i++ {
				cycle += uint64(r.Intn(2 * epochs * epoch / calls))
				exact.live.tickEpoch(cycle)
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
					call = func(tr *secTracker) {
						tr.OnAct(bank, row, cycle-on) // the PRE closes at cycle
						tr.OnPre(bank, row, on)
					}
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

// TestTrackerEndRun: the tracker enters epochs at PREs, so the edges a
// run's clock passes after its last PRE count only at endRun, which
// enters the epoch of the last ticked cycle: the finish cycle, or
// MaxCycles-1 on a truncated run (an edge at MaxCycles is never ticked).
func TestTrackerEndRun(t *testing.T) {
	const epoch = 4096
	base := tinyBase()
	entry, err := buildModule(base.ModuleLabel, base.RowsPerBank, base.CellsPerRow, 1, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	model := disturb.NewModel(entry.mod.Params, entry.mod.Geom)
	spec := temporal.Spec{EpochCycles: epoch, Drift: -0.01, Sigma: 0.02}
	for _, tc := range []struct{ end, maxCycles, want uint64 }{
		{10*epoch + 5, 1 << 30, 10},
		{10 * epoch, 1 << 30, 10},
		{10 * epoch, 10 * epoch, 9},
		{10*epoch + 1, 10*epoch + 1, 10},
	} {
		tr := newSecTracker(model, entry.hcBase, entry.psi, 1, base.CPUGHz, 1, 1)
		tr.startTemporal(temporal.NewProcess(spec, base.Seed), epoch)
		tr.OnAct(0, 7, 100)
		tr.OnPre(0, 7, 50)
		tr.endRun(tc.end, tc.maxCycles)
		if got := tr.epochAdvances(); got != tc.want {
			t.Errorf("end %d of MaxCycles %d: %d edges crossed, want %d", tc.end, tc.maxCycles, got, tc.want)
		}
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

// TestTrackerClosedForm is the tracker's closed-form oracle. One
// aggressor closes k times at an on-time at or below PressRefNs, so
// PressBase is exactly 1 and every closing adds exactly 0.5 to a
// distance-1 victim in its subarray (float32 sums of 0.5 are exact) and
// 0.5·BlastDecay to a distance-2 one; a row across a subarray edge, off
// the bank or further away reads 0. The aggressors sit on both sides of
// a subarray edge, one and two rows from it, and on both edges of the
// bank (a victim off the bank would land in the next bank's rows), so
// widening or narrowing the victim span by one row at either end fails.
// Then one aggressor closes until the first violation, which must come
// on closing ⌈2·hcFirst⌉ of its weakest distance-1 victim. The subarray
// oracle is the layout's start rows, not dram.Geometry's lookups.
func TestTrackerClosedForm(t *testing.T) {
	const (
		banks = 2
		k     = 100
	)
	base := tinyBase()
	entry, err := buildModule(base.ModuleLabel, base.RowsPerBank, base.CellsPerRow, banks, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	model := disturb.NewModel(entry.mod.Params, entry.mod.Geom)
	rows := base.RowsPerBank
	on := uint64(model.P.PressRefNs * base.CPUGHz)
	if b := model.PressBase(float64(on) / base.CPUGHz); b != 1 {
		t.Fatalf("PressBase at %d cycles = %v, want exactly 1", on, b)
	}
	starts := model.Geom.SubarrayStarts()
	subarray := func(r int) int {
		i := 0
		for i+1 < len(starts) && starts[i+1] <= r {
			i++
		}
		return i
	}
	// The first subarray edge with three rows before it and four from it.
	edge := -1
	for i := 1; i+1 < len(starts); i++ {
		if starts[i]-starts[i-1] >= 3 && starts[i+1]-starts[i] >= 4 {
			edge = starts[i]
			break
		}
	}
	if edge < 0 {
		t.Fatalf("no usable subarray edge in %v", starts)
	}
	newTracker := func(nRH float64) *secTracker {
		return newSecTracker(model, entry.hcBase, entry.psi, entry.prof.ScaledTo(nRH).Factor, base.CPUGHz, banks, banks)
	}
	closeRow := func(tr *secTracker, bank, row int) {
		tr.OnAct(bank, row, 1000)
		tr.OnPre(bank, row, on)
	}

	var d2 float32 // k closings' accrual at distance 2, summed as the tracker sums it
	for i := 0; i < k; i++ {
		d2 += float32(0.5 * model.P.BlastDecay)
	}
	for _, agg := range []struct{ bank, row int }{
		{1, edge - 2}, {1, edge - 1}, {1, edge}, {1, edge + 1},
		{1, 0}, {0, rows - 1},
	} {
		tr := newTracker(1024) // every threshold far above k/2: no violation, no reset
		for i := 0; i < k; i++ {
			closeRow(tr, agg.bank, agg.row)
		}
		if tr.Violations != 0 {
			t.Fatalf("aggressor %v: %d violations after %d closings at nRH 1024", agg, tr.Violations, k)
		}
		for idx, got := range tr.cur {
			bank, v := idx/rows, idx%rows
			var want float32
			if d := v - agg.row; bank == agg.bank && subarray(v) == subarray(agg.row) {
				switch d {
				case -1, 1:
					want = 0.5 * k
				case -2, 2:
					want = d2
				}
			}
			if got != want {
				t.Errorf("aggressor bank %d row %d (subarray edge at %d): bank %d row %d reads %v, want %v",
					agg.bank, agg.row, edge, bank, v, got, want)
			}
		}
	}

	// The first violation: aggressor edge+1, distance-1 victims edge and
	// edge+2, at nRH 64.
	const nRH = 64
	tr := newTracker(nRH)
	agg := edge + 1
	h1 := min(tr.live.calib.hcFirst(rows+edge), tr.live.calib.hcFirst(rows+edge+2))
	want := int(math.Ceil(2 * float64(h1)))
	if h2 := tr.live.calib.hcFirst(rows + edge + 3); float64(h2) <= float64(want)*0.5*model.P.BlastDecay*1.01 {
		t.Fatalf("distance-2 victim threshold %v could cross before closing %d", h2, want)
	}
	n := 0
	for tr.Violations == 0 && n < 1<<20 {
		closeRow(tr, 1, agg)
		n++
	}
	if n != want || tr.Violations != 1 {
		t.Errorf("first violation on closing %d (%d violations), want exactly one on closing ⌈2·%v⌉ = %d", n, tr.Violations, h1, want)
	}
}

// BenchmarkTrackerOnPre times one row closing (OnAct, then OnPre) on the
// benchmark shape's module: the golden fixture's base at nRH 64, every
// bank of its system, a seeded stream of closings over uniform rows and
// a few recurring on-times, the clock crossing an epoch edge every 16 384
// closings (four per pass, as a cell of the erosion workload does). "temporal" attaches the erosion workload's process to the
// live view; the tracker is re-armed after each pass over the stream so
// the floor's decay does not depend on b.N.
func BenchmarkTrackerOnPre(b *testing.B) {
	cfg := tinyBase()
	cfg.NRH, cfg.Mix = 64, []string{"mcf06", "ycsb-a"}
	l, err := newLayout(cfg)
	if err != nil {
		b.Fatal(err)
	}
	banks, rows := l.nchan*l.banksPerChan, cfg.RowsPerBank
	type closing struct {
		bank, row int
		on        uint64
	}
	r := rng.New(1)
	stream := make([]closing, 1<<16)
	for i := range stream {
		stream[i] = closing{r.Intn(banks), r.Intn(rows), uint64(110 + 14*r.Intn(6))}
	}
	for _, tc := range []struct {
		name string
		spec *temporal.Spec
	}{
		{"static", nil},
		{"temporal", &temporal.Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tr := new(secTracker)
			arm := func() {
				tr.reset(l.model, l.entry.hcBase, l.entry.psi, l.factor, cfg.CPUGHz, banks, banks)
				if tc.spec != nil {
					tr.startTemporal(temporal.NewProcess(*tc.spec, cfg.Seed), tc.spec.EpochCycles)
				}
			}
			arm()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(stream)
				if j == 0 && i > 0 {
					b.StopTimer()
					arm()
					b.StartTimer()
				}
				c := stream[j]
				cycle := uint64(j) * 4
				tr.OnAct(c.bank, c.row, cycle)
				tr.OnPre(c.bank, c.row, c.on)
			}
		})
	}
}
