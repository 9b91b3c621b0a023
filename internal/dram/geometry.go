// Package dram models a DDR4 DRAM module at the command level: geometry
// (bank groups, banks, subarrays, rows, cells), JEDEC-style timing
// parameters, in-DRAM logical-to-physical row address scrambling, and a
// device state machine that accepts ACT/PRE/RD/WR/REF commands with
// timing validation.
//
// The device itself is physics-free: it reports row activations (with
// their on-time) to a DisturbSink and asks the sink which cells of a row
// have flipped when the row is read. Package disturb provides the sink
// implementation; this split mirrors the real separation between a DRAM
// chip's addressing/state logic and its analog disturbance behaviour.
package dram

import (
	"fmt"
	"sort"

	"svard/internal/rng"
)

// Geometry describes the structure of one DRAM module (a rank of chips
// operating in lock-step, presented as a single wide device, which is how
// both DRAM Bender and the memory controller see it).
type Geometry struct {
	BankGroups    int // bank groups per rank (DDR4: 4)
	BanksPerGroup int // banks per bank group (DDR4: 4)
	RowsPerBank   int // rows per bank (32K / 64K / 128K in the tested modules)
	CellsPerRow   int // cells (bits) per row across the rank (8 KiB row = 65536)

	// subarrayStarts[i] is the first physical row of subarray i; the
	// slice is ascending and starts at 0. Populated by BuildSubarrays.
	subarrayStarts []int
}

// Banks returns the total number of banks in the module.
func (g *Geometry) Banks() int { return g.BankGroups * g.BanksPerGroup }

// BankGroupOf returns the bank group of a flat bank index.
func (g *Geometry) BankGroupOf(bank int) int { return bank / g.BanksPerGroup }

// RowBytes returns the row size in bytes.
func (g *Geometry) RowBytes() int { return g.CellsPerRow / 8 }

// Validate reports whether the geometry is internally consistent.
func (g *Geometry) Validate() error {
	switch {
	case g.BankGroups <= 0 || g.BanksPerGroup <= 0:
		return fmt.Errorf("dram: non-positive bank organization %d x %d", g.BankGroups, g.BanksPerGroup)
	case g.RowsPerBank <= 0:
		return fmt.Errorf("dram: non-positive rows per bank %d", g.RowsPerBank)
	case g.CellsPerRow <= 0 || g.CellsPerRow%8 != 0:
		return fmt.Errorf("dram: cells per row %d must be a positive multiple of 8", g.CellsPerRow)
	case len(g.subarrayStarts) > 0 && g.subarrayStarts[0] != 0:
		return fmt.Errorf("dram: first subarray must start at row 0, got %d", g.subarrayStarts[0])
	}
	return nil
}

// BuildSubarrays partitions the bank's rows into consecutive subarrays
// whose sizes vary pseudo-randomly in [minRows, maxRows], matching the
// paper's reverse-engineered finding of differently sized subarrays (330
// to 1027 rows per subarray, 32 to 206 subarrays per bank, §5.4.1). The
// layout is a deterministic function of seed. The final subarray absorbs
// the remainder and may be smaller than minRows.
func (g *Geometry) BuildSubarrays(seed uint64, minRows, maxRows int) {
	if minRows <= 0 || maxRows < minRows {
		panic("dram: invalid subarray size bounds")
	}
	r := rng.At(seed, 0x5A) // 0x5A: sub-seed domain for subarray layout
	starts := []int{0}
	row := 0
	for {
		size := minRows + r.Intn(maxRows-minRows+1)
		row += size
		if row >= g.RowsPerBank {
			break
		}
		starts = append(starts, row)
	}
	g.subarrayStarts = starts
}

// SetSubarrayStarts installs an explicit subarray layout (ascending row
// indices beginning with 0). Used by tests and by profile replay.
func (g *Geometry) SetSubarrayStarts(starts []int) {
	g.subarrayStarts = append([]int(nil), starts...)
}

// Subarrays returns the number of subarrays per bank (0 when no layout
// has been built).
func (g *Geometry) Subarrays() int { return len(g.subarrayStarts) }

// SubarrayStarts returns a copy of the subarray start rows.
func (g *Geometry) SubarrayStarts() []int {
	return append([]int(nil), g.subarrayStarts...)
}

// SubarrayOf returns the index of the subarray containing physical row.
// With no layout built, the whole bank is subarray 0.
func (g *Geometry) SubarrayOf(physRow int) int {
	if len(g.subarrayStarts) == 0 {
		return 0
	}
	// Largest i with subarrayStarts[i] <= physRow.
	return sort.SearchInts(g.subarrayStarts, physRow+1) - 1
}

// SubarrayBounds returns the [start, end) physical row range of subarray i.
func (g *Geometry) SubarrayBounds(i int) (start, end int) {
	if len(g.subarrayStarts) == 0 {
		return 0, g.RowsPerBank
	}
	start = g.subarrayStarts[i]
	if i+1 < len(g.subarrayStarts) {
		end = g.subarrayStarts[i+1]
	} else {
		end = g.RowsPerBank
	}
	return start, end
}

// SameSubarray reports whether two physical rows share a subarray.
func (g *Geometry) SameSubarray(a, b int) bool {
	return g.SubarrayOf(a) == g.SubarrayOf(b)
}

// VictimSpan returns the [lo, hi) rows a closing of physRow can disturb:
// its subarray (sense-amplifier stripes isolate read disturbance between
// subarrays, §5.4.1) clipped to the bank, which a layout set by hand may
// overrun. For a layout Validate accepts, lo <= v < hi iff
// 0 <= v < RowsPerBank and SameSubarray(physRow, v), so a neighbour walk
// pays one search per closing instead of two per neighbour.
func (g *Geometry) VictimSpan(physRow int) (lo, hi int) {
	lo, hi = g.SubarrayBounds(g.SubarrayOf(physRow))
	return lo, min(hi, g.RowsPerBank)
}

// DistanceToSenseAmps returns the physical row's distance (in rows) to
// the nearest subarray boundary, i.e., to its local sense amplifiers.
// Edge rows have distance 0.
func (g *Geometry) DistanceToSenseAmps(physRow int) int {
	sa := g.SubarrayOf(physRow)
	start, end := g.SubarrayBounds(sa)
	d1 := physRow - start
	d2 := end - 1 - physRow
	if d1 < d2 {
		return d1
	}
	return d2
}

// RelativeLocation maps a physical row to [0, 1], the paper's x-axis for
// Figs. 4 and 6 (0 and 1 are the two edges of a DRAM bank).
func (g *Geometry) RelativeLocation(physRow int) float64 {
	if g.RowsPerBank <= 1 {
		return 0
	}
	return float64(physRow) / float64(g.RowsPerBank-1)
}
