// Package hydra implements Hydra (Qureshi et al., ISCA 2022): hybrid
// activation tracking with a Group Count Table (GCT) in the memory
// controller and per-row counters in DRAM, cached by a Row Count Cache
// (RCC). Groups count collectively until they cross a threshold; beyond
// it, per-row counters take over, and RCC misses cost real DRAM traffic
// — the dominant overhead, which Svärd cannot remove (Obsv. 14). Rows
// whose counter reaches their threshold get preventive victim refreshes,
// which Svärd does reduce.
package hydra

import (
	"svard/internal/core"
	"svard/internal/mitigation"
	"svard/internal/rowtab"
)

// GroupSize is the number of rows sharing one GCT counter.
const GroupSize = 128

// RCCEntries is the row count cache capacity (row counters resident in
// the memory controller).
const RCCEntries = 32768

// Defense is a configured Hydra instance.
type Defense struct {
	si mitigation.SystemInfo
	th core.Thresholds

	gctThresh uint32
	gct       []uint32 // [bank*groups+group]
	groups    int
	// rct holds the per-row counters (backing store in DRAM) in a paged
	// flat table over the Key space; a row's entry stores count+1 so
	// "tracked at count 0" is distinguishable from "untracked".
	rct *rowtab.Table[uint32]
	rcc *rowCountCache

	nextReset uint64
	scratch   []mitigation.Directive
}

// New builds Hydra with thresholds th. The GCT threshold is sized from
// the worst-case budget, as the hardware structure must be.
func New(si mitigation.SystemInfo, th core.Thresholds) *Defense {
	d := &Defense{}
	d.Reset(si, th)
	return d
}

// Reset reinitializes the defense in place to the state New(si, th)
// produces, retaining table and cache allocations for pooled reuse.
func (d *Defense) Reset(si mitigation.SystemInfo, th core.Thresholds) {
	groups := (si.RowsPerBank + GroupSize - 1) / GroupSize
	gt := uint32(th.MinBudget() / 4)
	if gt == 0 {
		gt = 1
	}
	d.si = si
	d.th = th
	d.gctThresh = gt
	d.groups = groups
	if n := si.Banks * groups; cap(d.gct) >= n {
		d.gct = d.gct[:n]
		clear(d.gct)
	} else {
		d.gct = make([]uint32, n)
	}
	keys := int64(si.Banks) * int64(si.RowsPerBank)
	if d.rct == nil {
		d.rct = rowtab.New[uint32](keys)
	} else {
		d.rct.Resize(keys)
	}
	if d.rcc == nil {
		d.rcc = newRowCountCache(RCCEntries, keys)
	} else {
		d.rcc.reset(keys)
	}
	d.nextReset = si.REFWCycles
}

// Name implements mitigation.Defense.
func (d *Defense) Name() string { return "Hydra" }

// CanActivate implements mitigation.Defense; Hydra never throttles.
func (d *Defense) CanActivate(int, int, uint64) (bool, uint64) { return true, 0 }

func (d *Defense) windowReset(cycle uint64) {
	if cycle < d.nextReset {
		return
	}
	clear(d.gct)
	d.rct.Clear()
	d.rcc.clear()
	for cycle >= d.nextReset {
		d.nextReset += d.si.REFWCycles
	}
}

// OnActivate implements mitigation.Defense. The victim refreshes an
// activation triggers are activations too, which the controller issues
// without consulting the defense, so Hydra counts them here: otherwise
// the rows beside a refreshed victim (distance 2 from the aggressor)
// accrue disturbance from the refreshes that no count ever sees — the
// Half-Double pattern (Kogler et al., USENIX Security 2022). Only the
// aggressor's own victims are counted, one level deep, so the work per
// activation stays bounded.
func (d *Defense) OnActivate(bank, row int, cycle uint64) []mitigation.Directive {
	d.windowReset(cycle)
	out := d.count(d.scratch[:0], bank, row)
	for i, n := 0, len(out); i < n; i++ {
		if v := out[i]; v.Kind == mitigation.RefreshVictim {
			out = d.count(out, v.Bank, v.Row)
		}
	}
	d.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// count records one activation of (bank, row) and appends the directives
// it triggers to out: the counter traffic of a Row Count Cache miss, and
// the victim refreshes once the row's counter reaches its trigger.
func (d *Defense) count(out []mitigation.Directive, bank, row int) []mitigation.Directive {
	g := bank*d.groups + row/GroupSize
	if d.gct[g] < d.gctThresh {
		d.gct[g]++
		return out
	}
	// Per-row tracking. An RCC miss fetches the counter line from DRAM
	// (one read; a dirty eviction adds a writeback).
	key := mitigation.Key(d.si, bank, row)
	hit, evictedDirty := d.rcc.touch(key)
	if !hit {
		dir := mitigation.Directive{Kind: mitigation.ExtraMem, Bank: bank, Row: row, MemReads: 1}
		if evictedDirty {
			dir.MemWrites = 1
		}
		out = append(out, dir)
	}
	var cnt uint32
	if v := d.rct.Get(key); v != 0 {
		cnt = v - 1
	} else {
		// Rows in a saturated group start at half their own trigger
		// count: the group total spread over its rows is far below the
		// threshold, but a defense cannot assume uniformity.
		cnt = uint32(d.th.ActivationBudget(bank, row) * mitigation.TriggerFraction / 2)
	}
	cnt++
	budget := d.th.ActivationBudget(bank, row)
	if float64(cnt) >= budget*mitigation.TriggerFraction {
		out = mitigation.AppendVictimRefreshes(out, d.si, bank, row)
		cnt = 0
	}
	d.rct.Set(key, cnt+1)
	return out
}

// rowCountCache is a direct-mapped-with-victim-slack stand-in for the
// RCC: a bounded FIFO over a flat presence bitset. Hit behaviour, not
// replacement detail, drives Hydra's traffic shape.
type rowCountCache struct {
	cap   int
	order []int64
	head  int
	set   *rowtab.Bits
}

func newRowCountCache(capacity int, keys int64) *rowCountCache {
	return &rowCountCache{cap: capacity, order: make([]int64, 0, capacity), set: rowtab.NewBits(keys)}
}

// reset reinitializes the cache in place for a (possibly different) key
// space, retaining its allocations.
func (c *rowCountCache) reset(keys int64) {
	c.order = c.order[:0]
	c.head = 0
	c.set.Resize(keys)
}

// touch returns (hit, evictedDirty); misses insert the key, evicting the
// oldest entry when full (counter caches write back on eviction, so
// evictions are dirty).
func (c *rowCountCache) touch(key int64) (bool, bool) {
	if c.set.Get(key) {
		return true, false
	}
	evictedDirty := false
	if len(c.order) >= c.cap {
		old := c.order[c.head]
		c.set.Unset(old)
		c.order[c.head] = key
		c.head = (c.head + 1) % c.cap
		evictedDirty = true
	} else {
		c.order = append(c.order, key)
	}
	c.set.Set(key)
	return false, evictedDirty
}

func (c *rowCountCache) clear() {
	c.order = c.order[:0]
	c.head = 0
	c.set.Clear()
}
