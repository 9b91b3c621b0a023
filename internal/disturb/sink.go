package disturb

import (
	"svard/internal/dram"
	"svard/internal/rng"
)

// This file implements dram.DisturbSink on *Model: the accumulator path
// that a command-level Device drives.
//
// Units: the accumulator counts effective double-sided hammers, so each
// single activation of a distance-1 neighbour contributes 0.5 (one
// "hammer" is a pair of activations, §4.3), scaled by RowPress and
// temperature.
//
// Two-level accumulation: `cur` is the disturbance accrued since the
// row's cells were last recharged (activation or refresh); `peak` is the
// largest epoch-final `cur` since the row was last written. Restoration
// recharges cells to whatever value they currently hold, so cells that
// flipped in an earlier epoch stay flipped — visible flips are a
// function of max(cur, peak) — while a timely restore before the
// threshold prevents flips entirely, which is exactly what preventive
// refresh defenses rely on.

var _ dram.DisturbSink = (*Model)(nil)

type rowDisturb struct {
	cur  float64 // effective hammers since last restore
	peak float64 // max epoch-final cur since last write
}

// RowClosed accrues disturbance from one activation of aggRow that
// stayed open onTimeNs, onto the aggressor's physical neighbours within
// the same subarray (sense-amp stripes isolate subarrays, which is the
// signal the paper's subarray reverse engineering exploits).
func (m *Model) RowClosed(bank, aggRow int, onTimeNs float64) {
	tf := m.tempFactor()
	lo, hi := m.Geom.VictimSpan(aggRow)
	for _, d := range [...]int{-2, -1, 1, 2} {
		v := aggRow + d
		if v < lo || v >= hi {
			continue
		}
		w := 0.5
		if d == -2 || d == 2 {
			w *= m.P.BlastDecay
		}
		k := accKey{bank, v}
		st := m.acc[k]
		st.cur += w * m.PressFactor(bank, v, onTimeNs) * tf
		m.acc[k] = st
	}
}

// RowRestored handles a recharge of the row (activation or refresh):
// committed flips persist, in-progress accumulation resets.
func (m *Model) RowRestored(bank, row int) {
	k := accKey{bank, row}
	st, ok := m.acc[k]
	if !ok {
		return
	}
	if st.cur > st.peak {
		st.peak = st.cur
	}
	st.cur = 0
	if st.peak == 0 {
		delete(m.acc, k)
		return
	}
	m.acc[k] = st
}

// RowWritten handles fresh data being driven into the row: all state,
// including committed flips, is cleared.
func (m *Model) RowWritten(bank, row int) {
	delete(m.acc, accKey{bank, row})
}

// Accumulated returns the row's in-progress effective double-sided
// hammer count (since the last recharge).
func (m *Model) Accumulated(bank, row int) float64 {
	return m.acc[accKey{bank, row}].cur
}

// Effective returns the disturbance level that determines the row's
// visible flips: the maximum of the in-progress and committed levels.
func (m *Model) Effective(bank, row int) float64 {
	st := m.acc[accKey{bank, row}]
	if st.cur > st.peak {
		return st.cur
	}
	return st.peak
}

// WouldFlip reports whether the row's disturbance has crossed its
// (worst-case pattern) HCfirst.
func (m *Model) WouldFlip(bank, row int) bool {
	return m.Effective(bank, row) >= m.HCFirst(bank, row)
}

// FlipCount implements dram.DisturbSink: the number of flipped cells the
// row reads back with.
func (m *Model) FlipCount(bank, row int, pat dram.Pattern) int {
	eff := m.Effective(bank, row)
	if eff == 0 {
		return 0
	}
	return m.FlipCountAt(bank, row, eff, pat)
}

// Flips implements dram.DisturbSink: the flipped cell indices. Flip
// positions are a stable per-row sequence, so the flip set at a lower
// hammer count is always a subset of the set at a higher count.
func (m *Model) Flips(bank, row int, pat dram.Pattern) []int {
	n := m.FlipCount(bank, row, pat)
	if n == 0 {
		return nil
	}
	return m.FlipPositions(bank, row, n)
}

// FlipPositions returns the first n cells of the row's stable flip
// order: distinct indices drawn from a per-row stream (the weakest cell
// first).
func (m *Model) FlipPositions(bank, row, n int) []int {
	cells := m.Geom.CellsPerRow
	if n > cells {
		n = cells
	}
	r := rng.At(m.P.Seed, domFlipPos, uint64(bank), uint64(row))
	out := make([]int, 0, n)
	seen := make(map[int]struct{}, n)
	for len(out) < n {
		c := r.Intn(cells)
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	return out
}
