package sim

import (
	"svard/internal/disturb"
	"svard/internal/temporal"
)

// secTracker implements memctrl.Tracker: it accounts read disturbance
// accrual for every row under the scaled vulnerability model and counts
// security violations (a row crossing its scaled true HCfirst without a
// restore). A correctly configured defense must keep this at zero; the
// defense-free baseline at low thresholds must not (tests assert both).
//
// The thresholds it compares against are the LIVE view of the truth
// (views.go): for static runs that is exactly the calibration view the
// defenses were configured against; with a temporal process attached the
// live view drifts per epoch while defenses keep reading calibration —
// the tracker is the only component allowed to see the drifted truth.
//
// The tracker also keeps the run's clock for the live view: it enters
// the epoch of each closing row's PRE cycle itself (its bank's last ACT
// cycle plus the row's on-cycles), so neither engine loop nor a replay
// walk tells it the time. While a twin log is attached it appends every
// command it receives there, with system-wide bank and rank indices
// (twin.go).
//
// All per-row tables are flat [bank*rows+row] arrays — the tracker is
// on the controller's command path, and the accrual table is the
// largest piece of pooled state (4 B/row: 16 MB at the paper's 128K
// rows x 32 banks).
type secTracker struct {
	model  *disturb.Model
	live   liveView  // ground-truth thresholds (== calibration when static)
	psi    []float64 // RowPress susceptibility per [bank*rows+row], from buildModule
	cpuGHz float64

	rows         int
	banksPerRank int
	cur          []float32 // accrued effective hammers per [bank*rows+row]
	lastAct      []uint64  // each bank's last ACT cycle
	log          *twin     // the command log being recorded, or nil

	// Direct-mapped memo of the on-time term of the RowPress factor, by
	// on-time in cycles: on-times are quantized by the DRAM timing
	// parameters (closings cluster at tRAS and at column-burst multiples
	// past it) but interleave across banks, so a handful of values keeps
	// recurring without repeating back to back. The model and clock are
	// fixed between resets, so a slot's value is the pow it stands for.
	pressMemo [pressMemoSlots]struct {
		on   uint64 // onCycles+1; 0 = empty
		base float64
	}

	Violations uint64
}

const pressMemoSlots = 1024

func newSecTracker(model *disturb.Model, hcBase, psi []float64, factor, cpuGHz float64, banks, banksPerRank int) *secTracker {
	t := &secTracker{}
	t.reset(model, hcBase, psi, factor, cpuGHz, banks, banksPerRank)
	return t
}

// reset reinitializes the tracker in place to the state newSecTracker
// produces, retaining the accrual table when the geometry still fits.
func (t *secTracker) reset(model *disturb.Model, hcBase, psi []float64, factor, cpuGHz float64, banks, banksPerRank int) {
	rows := model.Geom.RowsPerBank
	t.model = model
	t.live.reset(hcBase, factor, rows)
	t.psi = psi
	t.cpuGHz = cpuGHz
	t.rows = rows
	t.banksPerRank = banksPerRank
	if n := banks * rows; cap(t.cur) >= n {
		t.cur = t.cur[:n]
		clear(t.cur)
	} else {
		t.cur = make([]float32, n)
	}
	if cap(t.lastAct) >= banks {
		t.lastAct = t.lastAct[:banks]
		clear(t.lastAct)
	} else {
		t.lastAct = make([]uint64, banks)
	}
	t.log = nil
	clear(t.pressMemo[:])
	t.Violations = 0
}

// startTemporal attaches a temporal process to the tracker's live view.
// Must be called after reset, before the run starts.
func (t *secTracker) startTemporal(proc temporal.Process, epochCycles uint64) {
	t.live.start(proc, epochCycles, len(t.cur))
}

// epochAdvances reports how many epoch edges the live view crossed this
// run — the flight recorder's temporal counter (0 on static runs).
func (t *secTracker) epochAdvances() uint64 { return t.live.advances }

// liveDraws reports how many live thresholds the run drew from the
// temporal process — comparisons the view's floor could not settle (0 on
// static runs).
func (t *secTracker) liveDraws() uint64 { return t.live.draws }

// endRun enters the epoch of the run's last ticked cycle, end or, on a
// truncated run (end == maxCycles), the cycle before it: every edge the
// run's clock passed counts in epoch_advances, commands or not.
func (t *secTracker) endRun(end, maxCycles uint64) { t.live.tickEpoch(min(end, maxCycles-1)) }

// OnAct: opening a row restores its own cells.
func (t *secTracker) OnAct(bank, row int, cycle uint64) {
	if t.log != nil {
		t.log.add(evACT, bank, row, cycle)
	}
	t.lastAct[bank] = cycle
	t.cur[bank*t.rows+row] = 0
}

// OnPre: the closing row disturbed its neighbours for its whole on-time
// (RowHammer per activation + RowPress per on-time), judged against the
// live thresholds of the epoch it closes in.
func (t *secTracker) OnPre(bank, row int, onCycles uint64) {
	if t.log != nil {
		t.log.add(evPRE, bank, row, onCycles)
	}
	t.live.tickEpoch(t.lastAct[bank] + onCycles)
	// One pow per closing (memoized on the recurring on-times), shared by
	// all of its victims.
	slot := &t.pressMemo[onCycles%pressMemoSlots]
	if slot.on != onCycles+1 {
		slot.on, slot.base = onCycles+1, t.model.PressBase(float64(onCycles)/t.cpuGHz)
	}
	pressBase := slot.base
	lo, hi := t.model.Geom.VictimSpan(row)
	base := bank * t.rows
	for _, d := range [...]int{-2, -1, 1, 2} {
		v := row + d
		if v < lo || v >= hi {
			continue
		}
		w := 0.5
		if d == -2 || d == 2 {
			w *= t.model.P.BlastDecay
		}
		idx := base + v
		acc := t.cur[idx] + float32(w*disturb.PressFactorFromBase(pressBase, t.psi[idx]))
		if t.live.reached(idx, acc) {
			t.Violations++
			acc = 0 // count each crossing once; the row has flipped
		}
		t.cur[idx] = acc
	}
}

// OnRefresh: REF restored a slice of rows in every bank of the rank.
func (t *secTracker) OnRefresh(rank, firstRow, count int) {
	if t.log != nil {
		t.log.add(evREF, rank, firstRow, uint64(count))
	}
	base := rank * t.banksPerRank
	banks := len(t.cur) / t.rows
	for b := base; b < base+t.banksPerRank && b < banks; b++ {
		for i := 0; i < count; i++ {
			t.cur[b*t.rows+(firstRow+i)%t.rows] = 0
		}
	}
}

// OnRowsSwapped: a migration rewrites both rows.
func (t *secTracker) OnRowsSwapped(bank, a, b int) {
	if t.log != nil {
		t.log.add(evSWAP, bank, a, uint64(b))
	}
	t.cur[bank*t.rows+a] = 0
	t.cur[bank*t.rows+b] = 0
}
