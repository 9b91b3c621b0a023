package sim

import (
	"math"

	"svard/internal/rowtab"
	"svard/internal/temporal"
)

// This file splits the per-row HCfirst truth into two explicit views:
//
//   - calibrationView: the per-row thresholds as they were measured when
//     the defense was configured — what every defense and the Svärd
//     remapping read. It is frozen at run start: core.Thresholds,
//     profile scaling, and all defense state derive from it and never
//     see temporal variation. That defenses read ONLY this view is a
//     contract, not an accident; TestTemporalMovesOnlyViolations pins it
//     by asserting a temporal run's performance-side results are
//     bit-identical to the static run's.
//
//   - liveView: the ground truth the security tracker checks accruals
//     against. For a static run it IS the calibration view (same
//     numbers, same code path, zero overhead). With a temporal process
//     attached it drifts under the defense's feet: per-row thresholds
//     are resampled at epoch boundaries from the process, so a defense
//     that was safe at calibration time can be violated at attack time.
//     The gap between the two views is exactly what the margin-erosion
//     sweep (erosion.go) quantifies.

// calibrationView is the frozen calibration-time threshold table:
// unscaled true HCfirst per flat [bank*rows+row] index plus the §7.1
// profile scaling factor, both fixed at run start.
type calibrationView struct {
	hcBase []float64 // unscaled true HCfirst per [bank*rows+row], from buildModule
	factor float64   // profile scaling factor (§7.1 future-chip scaling)
}

// hcFirst returns the calibration-time scaled threshold for idx.
func (v *calibrationView) hcFirst(idx int) float32 {
	h := float32(v.hcBase[idx] * v.factor)
	if h == 0 {
		h = math.SmallestNonzeroFloat32
	}
	return h
}

// liveView is the ground-truth threshold table. epochLen == 0 means
// static: the live view delegates straight to the calibration view and
// touches nothing else (the pre-temporal hot path, bit- and
// allocation-identical). With a process attached, a row's threshold is
// its calibration value times the process factor for the current epoch
// — but most accruals are nowhere near it, so reached bounds before it
// draws: floor is the least factor any row can have this epoch, and an
// accrual below calibration x floor is below the row's threshold
// whatever the process drew for it. Only a row that reaches the floor
// pays for its factor, memoized per row in an epoch-tagged paged table
// so pooled temporal runs stay allocation-flat after warmup.
type liveView struct {
	calib calibrationView
	rows  int // rows per bank: idx = bank*rows + row

	proc     temporal.Process
	epochLen uint64  // cycles per epoch; 0 = static (no process)
	epoch    uint64  // current in-run epoch number
	nextEdge uint64  // first cycle of the next epoch
	floor    float64 // proc.FactorFloor(epoch): no row's factor is below it
	advances uint64  // epoch edges crossed this run (flight-recorder counter)
	draws    uint64  // thresholds drawn from the process this run (memo misses)

	// memo caches the live threshold per row for the current epoch:
	// (epoch+1)<<32 | float32bits(threshold). The tag makes stale
	// entries from earlier epochs (or, after a Clear, earlier runs)
	// self-invalidating, and the zero value is never a valid entry, so
	// rowtab's zero=absent contract holds. Allocated lazily on the
	// first temporal run of an arena; static runs never touch it.
	memo *rowtab.Table[uint64]
}

// reset returns the view to the static state newSecTracker produces:
// no process, no epoch structure, memo cleared (retaining pages for the
// next temporal run on this arena).
func (v *liveView) reset(hcBase []float64, factor float64, rows int) {
	v.calib = calibrationView{hcBase: hcBase, factor: factor}
	v.rows = rows
	v.proc = temporal.Process{}
	v.epochLen = 0
	v.epoch = 0
	v.nextEdge = ^uint64(0)
	v.floor = 0
	v.advances = 0
	v.draws = 0
	if v.memo != nil {
		v.memo.Clear()
	}
}

// start attaches a temporal process: the view begins at epoch 0 with
// the first edge one epoch length away. n is the flat key-space size
// (banks*rows) the memo must cover.
func (v *liveView) start(proc temporal.Process, epochCycles uint64, n int) {
	v.proc = proc
	v.epochLen = epochCycles
	v.epoch = 0
	v.nextEdge = epochCycles
	v.floor = proc.FactorFloor(0)
	if v.memo == nil {
		v.memo = rowtab.New[uint64](int64(n))
	} else {
		v.memo.Resize(int64(n))
	}
}

// tickEpoch advances the view to cycle's epoch. Both engine loops call
// it at the top of every ticked cycle; for static runs it is a single
// predictable branch (the edge itself is out of line so this inlines).
func (v *liveView) tickEpoch(cycle uint64) {
	if v.epochLen != 0 && cycle >= v.nextEdge {
		v.crossEdge(cycle)
	}
}

// crossEdge steps the epoch past every edge at or before cycle and
// refreshes the floor for the epoch it lands in.
func (v *liveView) crossEdge(cycle uint64) {
	for cycle >= v.nextEdge {
		v.epoch++
		v.advances++
		v.nextEdge += v.epochLen
	}
	v.floor = v.proc.FactorFloor(v.epoch)
}

// nextEvent returns the next epoch edge — the bound the event engine
// folds into its skip computation so cycle-skipping never jumps over an
// epoch boundary (MaxUint64 when static).
func (v *liveView) nextEvent() uint64 { return v.nextEdge }

// reached reports whether acc, the hammers idx has accrued, has reached
// the row's live (ground-truth) threshold at the current epoch. The
// exact comparison — against the memoized draw, or the calibration view
// when static — is the only one that ever answers yes; the floor only
// proves it unnecessary (rounding to float32 is monotone, so below
// float32(calibration x floor) is below float32(calibration x factor)).
// A floor too low to prove anything costs the draw, never the answer:
// TestTrackerFloorMatchesExact runs a twin with its floor held at 0.
func (v *liveView) reached(idx int, acc float32) bool {
	if v.epochLen == 0 {
		return acc >= v.calib.hcFirst(idx)
	}
	if acc < float32(v.calib.hcBase[idx]*v.calib.factor*v.floor) {
		return false
	}
	return acc >= v.drawn(idx)
}

// drawn returns idx's live threshold at the current epoch: calibration
// times the process factor, computed once per (row, epoch).
func (v *liveView) drawn(idx int) float32 {
	tag := (v.epoch + 1) << 32
	if e := v.memo.Get(int64(idx)); e>>32 == v.epoch+1 {
		return math.Float32frombits(uint32(e))
	}
	v.draws++
	bank, row := idx/v.rows, idx%v.rows
	h := float32(v.calib.hcBase[idx] * v.calib.factor * v.proc.Factor(bank, row, v.epoch))
	if h <= 0 {
		// A drifted threshold can underflow to 0; keep the same
		// never-zero guard as the calibration view so accrual
		// comparisons stay well-defined.
		h = math.SmallestNonzeroFloat32
	}
	v.memo.Set(int64(idx), tag|uint64(math.Float32bits(h)))
	return h
}
