package disturb

import "svard/internal/dram"

var _ dram.HammerBatchSink = (*Model)(nil)

// DoubleSidedBatch applies the exact end state of pairs iterations of
// Alg. 1's hammer_doublesided loop (ACT hi, PRE, ACT lo, PRE per pair)
// in O(victims) instead of O(pairs) sink events.
//
// Loop-equivalence argument, for rows other than the two aggressors:
// every closure of an aggressor contributes its per-closure weight; the
// victims are never restored during the loop, so the batch simply adds
// pairs × weight. The aggressors themselves are restored by their own
// activations each pair; the derivation of their residual cur/peak is
// spelled out inline. Tests assert bit-level agreement (up to float
// summation order) with the command-by-command loop.
func (m *Model) DoubleSidedBatch(bank, aggLo, aggHi, pairs int, onTimeNs float64) {
	if pairs <= 0 {
		return
	}
	tf := m.tempFactor()
	perClosure := func(agg, victim int) (float64, bool) {
		d := victim - agg
		if d < -2 || d > 2 || d == 0 {
			return 0, false
		}
		if lo, hi := m.Geom.VictimSpan(agg); victim < lo || victim >= hi {
			return 0, false
		}
		w := 0.5
		if d == -2 || d == 2 {
			w *= m.P.BlastDecay
		}
		return w * m.PressFactor(bank, victim, onTimeNs) * tf, true
	}

	// Non-aggressor victims: pairs × per-closure contribution from each
	// aggressor's closures.
	for _, agg := range [...]int{aggLo, aggHi} {
		for _, d := range [...]int{-2, -1, 1, 2} {
			v := agg + d
			if v == aggLo || v == aggHi {
				continue
			}
			w, ok := perClosure(agg, v)
			if !ok {
				continue
			}
			k := accKey{bank, v}
			st := m.acc[k]
			st.cur += float64(pairs) * w
			m.acc[k] = st
		}
	}

	// Aggressors: each is restored by its own ACT every pair. The only
	// disturbance either receives is the other's closure at distance 2.
	//
	// aggLo (activated second in each pair): its pre-batch cur gains one
	// aggHi closure before aggLo's first ACT folds it into peak; every
	// later epoch ends with exactly one aggHi closure; after its final
	// ACT nothing disturbs it, so cur ends at 0.
	stepLo, okLo := perClosure(aggHi, aggLo)
	kLo := accKey{bank, aggLo}
	stLo := m.acc[kLo]
	first := stLo.cur
	if okLo {
		first += stepLo
	}
	stLo.peak = max3(stLo.peak, first, stepLo)
	stLo.cur = 0
	setOrDelete(m.acc, kLo, stLo)

	// aggHi (activated first): its pre-batch cur folds into peak
	// untouched at its first ACT; each epoch ends with one aggLo
	// closure; the final aggLo closure happens after aggHi's last ACT,
	// so cur ends at one step.
	stepHi, okHi := perClosure(aggLo, aggHi)
	kHi := accKey{bank, aggHi}
	stHi := m.acc[kHi]
	stHi.peak = max3(stHi.peak, stHi.cur, stepHi)
	if okHi {
		stHi.cur = stepHi
	} else {
		stHi.cur = 0
	}
	setOrDelete(m.acc, kHi, stHi)
}

// SingleSidedBatch applies the end state of acts single-sided hammers
// (ACT, hold onTimeNs, PRE) of one aggressor row: victims accrue acts ×
// per-closure weight; the aggressor's own in-progress disturbance folds
// into its peak at its first activation and ends at zero.
func (m *Model) SingleSidedBatch(bank, agg, acts int, onTimeNs float64) {
	if acts <= 0 {
		return
	}
	tf := m.tempFactor()
	lo, hi := m.Geom.VictimSpan(agg)
	for _, d := range [...]int{-2, -1, 1, 2} {
		v := agg + d
		if v < lo || v >= hi {
			continue
		}
		w := 0.5
		if d == -2 || d == 2 {
			w *= m.P.BlastDecay
		}
		k := accKey{bank, v}
		st := m.acc[k]
		st.cur += float64(acts) * w * m.PressFactor(bank, v, onTimeNs) * tf
		m.acc[k] = st
	}
	k := accKey{bank, agg}
	st := m.acc[k]
	if st.cur > st.peak {
		st.peak = st.cur
	}
	st.cur = 0
	setOrDelete(m.acc, k, st)
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func setOrDelete(acc map[accKey]rowDisturb, k accKey, st rowDisturb) {
	if st.cur == 0 && st.peak == 0 {
		delete(acc, k)
		return
	}
	acc[k] = st
}
