package mem

// Bank is the cycle-level state of one DRAM bank: the open row and the
// earliest cycles at which each command class may issue.
type Bank struct {
	OpenRow   int    // -1 when precharged
	ActAt     uint64 // cycle of the last ACT (for row on-time accounting)
	ActReady  uint64 // earliest next ACT
	ColReady  uint64 // earliest next RD/WR to the open row
	PreReady  uint64 // earliest next PRE
	BusyUntil uint64 // bank blocked (refresh, row migration)
	HitStreak int    // consecutive row-hit column commands (FR-FCFS cap)
	ActCount  uint64 // statistics
	PreCount  uint64
}

// Rank tracks rank-level activation windows shared by its banks.
type Rank struct {
	actTimes [4]uint64 // rolling window of the last four ACT cycles
	actIdx   int
	actCount uint64
	lastAct  uint64
	lastBG   int
	anyAct   bool

	NextREF    uint64 // next refresh deadline
	Refreshing bool
	RefUntil   uint64
}

// Channel is the shared command/data bus state.
type Channel struct {
	DataFree  uint64 // earliest cycle the data bus is free
	lastRdEnd uint64
	lastWrEnd uint64
}

// System is the cycle-level DRAM device array: ranks × banks with
// shared channel state.
type System struct {
	T           Timing
	BankGroups  int
	BanksPerGG  int // banks per bank group
	Ranks       []Rank
	Banks       []Bank // [rank*banksPerRank + bank]
	Chan        Channel
	RowsPerBank int

	// rankOf/groupOf memoize RankOf/GroupOf per bank: both sit on the
	// per-candidate paths of the controller's scheduling scans, where an
	// integer divide per call is measurable.
	rankOf  []int32
	groupOf []int32
}

// NewSystem builds a DRAM system with the given organization.
func NewSystem(t Timing, ranks, bankGroups, banksPerGroup, rowsPerBank int) *System {
	s := &System{}
	s.Reset(t, ranks, bankGroups, banksPerGroup, rowsPerBank)
	return s
}

// Reset reinitializes the system in place to the state NewSystem
// produces, retaining the rank and bank slices when the organization
// still fits — the pooled-reuse path between sweep cells.
func (s *System) Reset(t Timing, ranks, bankGroups, banksPerGroup, rowsPerBank int) {
	s.T = t
	s.BankGroups = bankGroups
	s.BanksPerGG = banksPerGroup
	if cap(s.Ranks) >= ranks {
		s.Ranks = s.Ranks[:ranks]
	} else {
		s.Ranks = make([]Rank, ranks)
	}
	for r := range s.Ranks {
		s.Ranks[r] = Rank{NextREF: t.REFI}
	}
	banks := ranks * bankGroups * banksPerGroup
	if cap(s.Banks) >= banks {
		s.Banks = s.Banks[:banks]
	} else {
		s.Banks = make([]Bank, banks)
	}
	for i := range s.Banks {
		s.Banks[i] = Bank{OpenRow: -1}
	}
	s.Chan = Channel{}
	s.RowsPerBank = rowsPerBank
	if cap(s.rankOf) >= banks {
		s.rankOf = s.rankOf[:banks]
		s.groupOf = s.groupOf[:banks]
	} else {
		s.rankOf = make([]int32, banks)
		s.groupOf = make([]int32, banks)
	}
	perRank := bankGroups * banksPerGroup
	for b := 0; b < banks; b++ {
		s.rankOf[b] = int32(b / perRank)
		s.groupOf[b] = int32(b % perRank / banksPerGroup)
	}
}

// BanksPerRank returns the banks in one rank.
func (s *System) BanksPerRank() int { return s.BankGroups * s.BanksPerGG }

// TotalBanks returns the number of banks across all ranks.
func (s *System) TotalBanks() int { return len(s.Banks) }

// RankOf returns the rank of a global bank index.
func (s *System) RankOf(bank int) int { return int(s.rankOf[bank]) }

// GroupOf returns the bank group (within its rank) of a global bank.
func (s *System) GroupOf(bank int) int { return int(s.groupOf[bank]) }

// CanACT reports whether an ACT to bank may issue at cycle.
func (s *System) CanACT(bank int, cycle uint64) bool {
	b := &s.Banks[bank]
	if b.OpenRow >= 0 || cycle < b.ActReady || cycle < b.BusyUntil {
		return false
	}
	r := &s.Ranks[s.RankOf(bank)]
	if r.Refreshing && cycle < r.RefUntil {
		return false
	}
	if r.anyAct {
		rrd := s.T.RRDS
		if s.GroupOf(bank) == r.lastBG {
			rrd = s.T.RRDL
		}
		if cycle < r.lastAct+rrd {
			return false
		}
	}
	// tFAW: the fourth-last ACT must be at least FAW ago.
	if r.actCount >= 4 && cycle < r.actTimes[r.actIdx]+s.T.FAW {
		return false
	}
	return true
}

// ACT opens row in bank at cycle. The caller must have checked CanACT.
func (s *System) ACT(bank, row int, cycle uint64) {
	b := &s.Banks[bank]
	b.OpenRow = row
	b.ActAt = cycle
	b.ColReady = cycle + s.T.RCD
	b.PreReady = cycle + s.T.RAS
	b.ActReady = cycle + s.T.RC
	b.HitStreak = 0
	b.ActCount++
	r := &s.Ranks[s.RankOf(bank)]
	r.actTimes[r.actIdx] = cycle
	r.actIdx = (r.actIdx + 1) % 4
	r.actCount++
	r.lastAct = cycle
	r.lastBG = s.GroupOf(bank)
	r.anyAct = true
}

// CanPRE reports whether a PRE to bank may issue at cycle.
func (s *System) CanPRE(bank int, cycle uint64) bool {
	b := &s.Banks[bank]
	return b.OpenRow >= 0 && cycle >= b.PreReady && cycle >= b.BusyUntil
}

// PRE closes the open row and returns it with its on-time in cycles.
func (s *System) PRE(bank int, cycle uint64) (row int, onCycles uint64) {
	b := &s.Banks[bank]
	row = b.OpenRow
	onCycles = cycle - b.ActAt
	b.OpenRow = -1
	b.ActReady = maxU(b.ActReady, cycle+s.T.RP)
	b.PreCount++
	return row, onCycles
}

// CanColumn reports whether a RD/WR to the open row of bank may issue at
// cycle (row must match; the data bus must be free).
func (s *System) CanColumn(bank, row int, write bool, cycle uint64) bool {
	b := &s.Banks[bank]
	if b.OpenRow != row || cycle < b.ColReady || cycle < b.BusyUntil {
		return false
	}
	// Data bus occupancy: the burst must start after the previous one
	// ends (CL/CWL pipelining folded into a single bus-free time).
	var dataStart uint64
	if write {
		dataStart = cycle + s.T.CWL
	} else {
		dataStart = cycle + s.T.CL
	}
	return dataStart >= s.Chan.DataFree
}

// Column issues a RD or WR to the open row of bank, returning the cycle
// at which the data transfer completes.
func (s *System) Column(bank int, write bool, cycle uint64) uint64 {
	b := &s.Banks[bank]
	// Back-to-back columns are spaced by the long CCD on the bank's own
	// ColReady; cross-bank pairs only share the data bus.
	var dataStart, dataEnd uint64
	if write {
		dataStart = cycle + s.T.CWL
		dataEnd = dataStart + s.T.BL
		b.PreReady = maxU(b.PreReady, dataEnd+s.T.WR)
		s.Chan.lastWrEnd = dataEnd
	} else {
		dataStart = cycle + s.T.CL
		dataEnd = dataStart + s.T.BL
		b.PreReady = maxU(b.PreReady, cycle+s.T.RTP)
		s.Chan.lastRdEnd = dataEnd
	}
	b.ColReady = maxU(b.ColReady, cycle+s.T.CCDL)
	b.HitStreak++
	s.Chan.DataFree = dataEnd
	return dataEnd
}

// RefreshDue reports whether rank must refresh at cycle.
func (s *System) RefreshDue(rank int, cycle uint64) bool {
	return cycle >= s.Ranks[rank].NextREF
}

// AllPrecharged reports whether every bank of rank is closed.
func (s *System) AllPrecharged(rank int) bool {
	base := rank * s.BanksPerRank()
	for b := base; b < base+s.BanksPerRank(); b++ {
		if s.Banks[b].OpenRow >= 0 {
			return false
		}
	}
	return true
}

// REF starts a refresh on rank at cycle: all its banks block for RFC.
func (s *System) REF(rank int, cycle uint64) {
	r := &s.Ranks[rank]
	r.NextREF += s.T.REFI
	r.Refreshing = true
	r.RefUntil = cycle + s.T.RFC
	base := rank * s.BanksPerRank()
	for b := base; b < base+s.BanksPerRank(); b++ {
		s.Banks[b].BusyUntil = maxU(s.Banks[b].BusyUntil, cycle+s.T.RFC)
		s.Banks[b].ActReady = maxU(s.Banks[b].ActReady, cycle+s.T.RFC)
	}
}

// EndRefreshIfDone clears the refreshing flag once RFC has elapsed and
// reports whether it did (RankActEarliest drops its refresh term then).
func (s *System) EndRefreshIfDone(rank int, cycle uint64) bool {
	r := &s.Ranks[rank]
	if r.Refreshing && cycle >= r.RefUntil {
		r.Refreshing = false
		return true
	}
	return false
}

// The earliest-issue methods below are the timing exposure the
// event-driven simulation engine skips by: given the current (frozen)
// device state, each returns a lower bound on the first cycle at which
// the corresponding command could issue to the bank. The bounds are
// exact while no command issues — every ready time in Bank/Rank/Channel
// only moves when a command does — so a driver that ticks the
// controller at every returned cycle observes the identical command
// sequence as one that ticks every cycle (see sim.Run).

// ActEarliest returns the earliest cycle an ACT could issue to bank,
// assuming the bank stays precharged. Mirrors every CanACT constraint:
// bank ready times, refresh occupancy, tRRD, and tFAW.
func (s *System) ActEarliest(bank int) uint64 {
	b := &s.Banks[bank]
	return max(b.ActReady, b.BusyUntil, s.RankActEarliest(s.RankOf(bank), s.GroupOf(bank)))
}

// RankActEarliest is the part of ActEarliest that no single bank owns:
// the earliest cycle the rank admits an ACT to any bank of group —
// refresh occupancy, tRRD_S or tRRD_L against the last ACT, and tFAW. It
// moves only when the rank activates or starts or ends a refresh, so a
// scheduler can hold it once per (rank, group) next to per-bank ready
// times instead of re-deriving it per bank.
func (s *System) RankActEarliest(rank, group int) uint64 {
	r := &s.Ranks[rank]
	var t uint64
	if r.Refreshing {
		t = r.RefUntil
	}
	if r.anyAct {
		rrd := s.T.RRDS
		if group == r.lastBG {
			rrd = s.T.RRDL
		}
		t = max(t, r.lastAct+rrd)
	}
	if r.actCount >= 4 {
		t = max(t, r.actTimes[r.actIdx]+s.T.FAW)
	}
	return t
}

// PreEarliest returns the earliest cycle a PRE could issue to bank,
// assuming its row stays open (CanPRE's ready times).
func (s *System) PreEarliest(bank int) uint64 {
	b := &s.Banks[bank]
	return maxU(b.PreReady, b.BusyUntil)
}

// ColumnEarliest returns the earliest cycle a RD/WR could issue to the
// open row of bank, assuming it stays open (CanColumn's ready times and
// the data-bus occupancy).
func (s *System) ColumnEarliest(bank int, write bool) uint64 {
	b := &s.Banks[bank]
	t := maxU(b.ColReady, b.BusyUntil)
	lat := s.T.CL
	if write {
		lat = s.T.CWL
	}
	// dataStart = cycle + lat must reach Chan.DataFree.
	if s.Chan.DataFree > lat {
		t = maxU(t, s.Chan.DataFree-lat)
	}
	return t
}

// BlockBank blocks a bank for extra cycles (row migration, swap).
func (s *System) BlockBank(bank int, cycle, busyCycles uint64) {
	b := &s.Banks[bank]
	until := cycle + busyCycles
	b.BusyUntil = maxU(b.BusyUntil, until)
	b.ActReady = maxU(b.ActReady, until)
	b.ColReady = maxU(b.ColReady, until)
	b.PreReady = maxU(b.PreReady, until)
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
