// Package mitigation defines the framework shared by the five evaluated
// read disturbance defenses (AQUA, BlockHammer, Hydra, PARA, RRS): the
// Defense interface the memory controller drives, the directives a
// defense can return (preventive victim refresh, row migration, extra
// metadata memory traffic), and the counting structures the defenses
// are built from.
//
// Svärd integration (§6.1) is uniform: every defense takes a
// core.Thresholds. The profile-oblivious configuration passes
// core.Fixed(nRH); the Svärd configuration passes *core.Svard, whose
// ActivationBudget supplies the per-activation threshold on every ACT.
package mitigation

import (
	"svard/internal/rng"
	"svard/internal/rowtab"
)

// Kind classifies a Directive.
type Kind int

// Directive kinds.
const (
	// RefreshVictim preventively refreshes (Bank, Row): the MC performs
	// an internal ACT+PRE on that row.
	RefreshVictim Kind = iota
	// SwapRows exchanges the physical contents/locations of Row and
	// DstRow in Bank, blocking the bank for BusyCycles (row migration).
	SwapRows
	// ExtraMem issues MemReads internal metadata reads and MemWrites
	// writes through the normal queues (Hydra's counter traffic).
	ExtraMem
)

// Directive is one action the memory controller must execute on a
// defense's behalf, with its full performance cost.
type Directive struct {
	Kind       Kind
	Bank       int
	Row        int
	DstRow     int
	MemReads   int
	MemWrites  int
	BusyCycles uint64
}

// Defense is the memory-controller-side interface of a read disturbance
// solution. The MC consults CanActivate before issuing an ACT (throttling
// defenses gate here) and calls OnActivate after issuing it.
type Defense interface {
	Name() string
	// CanActivate reports whether an ACT to (bank, row) may issue at
	// cycle; when false, retryAt is the earliest cycle to try again.
	CanActivate(bank, row int, cycle uint64) (ok bool, retryAt uint64)
	// OnActivate records the ACT and returns any directives to execute.
	// The returned slice is only valid until the next OnActivate call:
	// implementations reuse a scratch buffer so the per-activation hot
	// path stays allocation-free, and the controller consumes the
	// directives synchronously before issuing another ACT.
	OnActivate(bank, row int, cycle uint64) []Directive
}

// SystemInfo carries the system parameters defenses size themselves by.
type SystemInfo struct {
	Banks       int
	RowsPerBank int
	REFWCycles  uint64 // refresh window in CPU cycles
	Seed        uint64
}

// Key flattens (bank, row) for map keys.
func Key(si SystemInfo, bank, row int) int64 {
	return int64(bank)*int64(si.RowsPerBank) + int64(row)
}

// Nop is the defense-free baseline.
type Nop struct{}

// Name implements Defense.
func (Nop) Name() string { return "None" }

// CanActivate implements Defense.
func (Nop) CanActivate(int, int, uint64) (bool, uint64) { return true, 0 }

// OnActivate implements Defense.
func (Nop) OnActivate(int, int, uint64) []Directive { return nil }

// TriggerFraction is the fraction of an activation budget at which
// counter-based defenses (Hydra, RRS, AQUA) take their preventive
// action: a victim has two aggressors, each of which must stay below
// half the budget, and deployments add a further 2x safety margin.
const TriggerFraction = 0.25

// AppendVictimRefreshes appends the standard preventive-refresh
// directives for an aggressor to dst and returns the extended slice —
// allocation-free on every defense's OnActivate scratch path. The
// directives refresh its two distance-1 neighbours. Distance-2 victims
// receive only a few percent of the aggressor's disturbance and are
// covered by the periodic refresh sweep within each window. A refresh is
// itself an ACT of the victim, which the controller issues without
// consulting the defense, so it disturbs the victim's other neighbour (the
// aggressor's distance-2 row) unseen: a defense that refreshes often must
// count its own refreshes (Hydra does) or a steady hammer flips that row
// through them — the Half-Double pattern.
func AppendVictimRefreshes(dst []Directive, si SystemInfo, bank, row int) []Directive {
	for _, d := range [...]int{-1, 1} {
		v := row + d
		if v < 0 || v >= si.RowsPerBank {
			continue
		}
		dst = append(dst, Directive{Kind: RefreshVictim, Bank: bank, Row: v})
	}
	return dst
}

// CBF is a counting Bloom filter: the aggressor-tracking structure of
// BlockHammer. Estimates never under-count (no false negatives).
type CBF struct {
	counters []uint32
	k        int
	seed     uint64
}

// NewCBF builds a filter with m counters and k hash functions.
func NewCBF(m, k int, seed uint64) *CBF {
	if m <= 0 || k <= 0 {
		panic("mitigation: invalid CBF shape")
	}
	return &CBF{counters: make([]uint32, m), k: k, seed: seed}
}

// Insert increments the key's counters. The hash chain is walked
// inline — the per-activation path must not allocate a position slice.
func (f *CBF) Insert(key int64) {
	h := rng.Hash64(f.seed, uint64(key))
	for i := 0; i < f.k; i++ {
		f.counters[h%uint64(len(f.counters))]++
		h = rng.Mix64(h)
	}
}

// Estimate returns the key's count estimate (the min over its
// counters); it never under-counts.
func (f *CBF) Estimate(key int64) uint32 {
	est := ^uint32(0)
	h := rng.Hash64(f.seed, uint64(key))
	for i := 0; i < f.k; i++ {
		if c := f.counters[h%uint64(len(f.counters))]; c < est {
			est = c
		}
		h = rng.Mix64(h)
	}
	return est
}

// Clear zeroes the filter.
func (f *CBF) Clear() {
	for i := range f.counters {
		f.counters[i] = 0
	}
}

// Reseed clears the filter and replaces its hash seed — the in-place
// equivalent of building a fresh filter, for pooled reuse.
func (f *CBF) Reseed(seed uint64) {
	f.seed = seed
	f.Clear()
}

// WindowCounter tracks exact per-row activation counts within refresh
// windows, resetting at each boundary. It stands in for the defenses'
// aggressor trackers (Misra-Gries/CAT); exact counting is conservative
// for security and optimistic (no estimation slack) for performance.
// Counts live in a paged flat table over the Key-flattened (bank, row)
// space — the per-activation Inc is an array access, not a map hash.
type WindowCounter struct {
	counts    *rowtab.Table[uint32]
	windowLen uint64
	nextReset uint64
}

// NewWindowCounter builds a tracker over keys [0, keys) that resets
// every windowLen cycles; keys is Banks*RowsPerBank for Key-flattened
// row coordinates.
func NewWindowCounter(windowLen uint64, keys int64) *WindowCounter {
	return &WindowCounter{counts: rowtab.New[uint32](keys), windowLen: windowLen, nextReset: windowLen}
}

// Reuse reinitializes the tracker in place to the state
// NewWindowCounter would produce, retaining its table pages.
func (w *WindowCounter) Reuse(windowLen uint64, keys int64) {
	w.counts.Resize(keys)
	w.windowLen = windowLen
	w.nextReset = windowLen
}

// Tick resets the window if cycle crossed the boundary.
func (w *WindowCounter) Tick(cycle uint64) {
	if cycle >= w.nextReset {
		w.counts.Clear()
		for cycle >= w.nextReset {
			w.nextReset += w.windowLen
		}
	}
}

// Inc increments and returns the key's count.
func (w *WindowCounter) Inc(key int64) uint32 {
	return w.counts.Add(key, 1)
}

// Reset zeroes one key.
func (w *WindowCounter) Reset(key int64) { w.counts.Set(key, 0) }

// Count returns the key's current count.
func (w *WindowCounter) Count(key int64) uint32 { return w.counts.Get(key) }
