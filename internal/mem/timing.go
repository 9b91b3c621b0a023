// Package mem provides the cycle-level DDR4 device timing used by the
// performance simulator (§7.1, Table 4): per-bank state machines with
// ready-time bookkeeping for ACT/PRE/RD/WR/REF, rank-level tFAW/tRRD
// windows, and the shared data bus. All times are in CPU cycles.
package mem

import (
	"math"

	"svard/internal/dram"
)

// Timing holds DDR4 timing parameters converted to CPU clock cycles.
// System enforces every one of them; REFW only sizes the refresh sweep.
type Timing struct {
	RCD  uint64 // ACT to column command
	RAS  uint64 // ACT to PRE
	RP   uint64 // PRE to ACT, and to REF of its rank
	RC   uint64 // ACT to ACT, same bank
	CL   uint64 // read latency
	CWL  uint64 // write latency
	BL   uint64 // data burst occupancy
	CCDS uint64 // column-to-column, different bank group
	CCDL uint64 // column-to-column, same bank group
	RRDS uint64 // ACT-to-ACT, different bank group
	RRDL uint64 // ACT-to-ACT, same bank group
	FAW  uint64 // four-activate window
	WR   uint64 // write recovery
	WTRS uint64 // end of a write burst to read, different bank group
	WTRL uint64 // end of a write burst to read, same bank group
	RTP  uint64 // read to precharge
	RFC  uint64 // refresh latency
	REFI uint64 // refresh interval
	REFW uint64 // refresh window
}

// CyclesFrom converts a nanosecond DDR4 timing set to CPU cycles at
// cpuGHz, rounding every parameter up (conservative).
func CyclesFrom(t dram.Timing, cpuGHz float64) Timing {
	c := func(ns float64) uint64 { return uint64(math.Ceil(ns * cpuGHz)) }
	return Timing{
		RCD:  c(t.TRCD),
		RAS:  c(t.TRAS),
		RP:   c(t.TRP),
		RC:   c(t.TRC()),
		CL:   c(t.TCL),
		CWL:  c(t.TCWL),
		BL:   c(t.TBL),
		CCDS: c(t.TCCDS),
		CCDL: c(t.TCCDL),
		RRDS: c(t.TRRDS),
		RRDL: c(t.TRRDL),
		FAW:  c(t.TFAW),
		WR:   c(t.TWR),
		WTRS: c(t.TWTRS),
		WTRL: c(t.TWTRL),
		RTP:  c(t.TRTP),
		RFC:  c(t.TRFC),
		REFI: c(t.TREFI),
		REFW: c(t.TREFW),
	}
}
