package mem

// Bank is the cycle-level state of one DRAM bank: the open row and the
// earliest cycles at which each command class may issue. A window in which
// the bank takes no command (BlockBank, REF) is written into those ready
// times.
type Bank struct {
	OpenRow   int    // -1 when precharged
	ActAt     uint64 // cycle of the last ACT (for row on-time accounting)
	ActReady  uint64 // earliest next ACT: tRC, tRP, tRFC
	ColReady  uint64 // earliest next RD/WR to the open row: tRCD, tCCD_L
	PreReady  uint64 // earliest next PRE: tRAS, tRTP, tWR
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
	DataFree uint64 // earliest cycle the data bus is free
}

// Command is one issued DRAM command, as System.Observer sees it.
type Command struct {
	Kind  byte   // 'A' ACT, 'P' PRE, 'C' RD or WR (Write says which), 'R' REF
	Bank  int    // global bank index; the rank for REF
	Row   int    // row opened (ACT), closed (PRE) or accessed (RD/WR)
	Write bool   // RD/WR only
	Cycle uint64 // issue cycle
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

	// Observer, when set, is told every command ACT, PRE, Column and REF
	// issue. It watches, it never steers: the protocol checker of the
	// tests (internal/mem/protocheck) attaches here. Reset clears it, so a
	// pooled system never carries one run's observer into the next.
	Observer func(Command)

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
	s.Observer = nil
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
	return s.Banks[bank].OpenRow < 0 && s.ActEarliest(bank) <= cycle
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
	if s.Observer != nil {
		s.Observer(Command{Kind: 'A', Bank: bank, Row: row, Cycle: cycle})
	}
}

// CanPRE reports whether a PRE to bank may issue at cycle.
func (s *System) CanPRE(bank int, cycle uint64) bool {
	return s.Banks[bank].OpenRow >= 0 && s.PreEarliest(bank) <= cycle
}

// PRE closes the open row and returns it with its on-time in cycles.
func (s *System) PRE(bank int, cycle uint64) (row int, onCycles uint64) {
	b := &s.Banks[bank]
	row = b.OpenRow
	onCycles = cycle - b.ActAt
	b.OpenRow = -1
	b.ActReady = max(b.ActReady, cycle+s.T.RP)
	b.PreCount++
	if s.Observer != nil {
		s.Observer(Command{Kind: 'P', Bank: bank, Row: row, Cycle: cycle})
	}
	return row, onCycles
}

// CanColumn reports whether a RD/WR to the open row of bank may issue at
// cycle (row must match; the data bus must be free).
func (s *System) CanColumn(bank, row int, write bool, cycle uint64) bool {
	return s.Banks[bank].OpenRow == row && s.ColumnEarliest(bank, write) <= cycle
}

// Column issues a RD or WR to the open row of bank, returning the cycle
// at which the data transfer completes.
func (s *System) Column(bank int, write bool, cycle uint64) uint64 {
	b := &s.Banks[bank]
	// Back-to-back columns are spaced by the long CCD on the bank's own
	// ColReady; cross-bank pairs only share the data bus (CL/CWL
	// pipelining folded into a single bus-free time).
	var dataEnd uint64
	if write {
		dataEnd = cycle + s.T.CWL + s.T.BL
		b.PreReady = max(b.PreReady, dataEnd+s.T.WR)
	} else {
		dataEnd = cycle + s.T.CL + s.T.BL
		b.PreReady = max(b.PreReady, cycle+s.T.RTP)
	}
	b.ColReady = max(b.ColReady, cycle+s.T.CCDL)
	b.HitStreak++
	s.Chan.DataFree = dataEnd
	if s.Observer != nil {
		s.Observer(Command{Kind: 'C', Bank: bank, Row: b.OpenRow, Write: write, Cycle: cycle})
	}
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

// REF starts a refresh on rank at cycle: none of its banks takes an ACT
// for RFC. The caller must have found the rank AllPrecharged, so an ACT
// is the only command they could take and ActReady the one field to raise.
func (s *System) REF(rank int, cycle uint64) {
	r := &s.Ranks[rank]
	r.NextREF += s.T.REFI
	r.Refreshing = true
	r.RefUntil = cycle + s.T.RFC
	base := rank * s.BanksPerRank()
	for b := base; b < base+s.BanksPerRank(); b++ {
		s.Banks[b].ActReady = max(s.Banks[b].ActReady, r.RefUntil)
	}
	if s.Observer != nil {
		s.Observer(Command{Kind: 'R', Bank: rank, Cycle: cycle})
	}
}

// EndRefreshIfDone clears the refreshing flag once RFC has elapsed; the
// flag only keeps a second REF from starting inside the first.
func (s *System) EndRefreshIfDone(rank int, cycle uint64) {
	r := &s.Ranks[rank]
	if r.Refreshing && cycle >= r.RefUntil {
		r.Refreshing = false
	}
}

// The *Earliest methods below are the one statement of when a command
// may issue: each returns the first cycle at which the command is legal
// in the current (frozen) device state, and CanACT/CanPRE/CanColumn are
// "state test && earliest <= cycle". Every term is a ready time that one
// command method moves, and none moves unless a command issues — so the
// bounds are exact, and a driver that ticks the controller at every
// returned cycle observes the identical command sequence as one that
// ticks every cycle (see sim.Run). The independent check that they are
// the DDR timing rules is the command-stream validator of
// internal/mem/protocheck, which shares no code with them.

// ActEarliest returns the earliest cycle an ACT could issue to bank,
// assuming the bank stays precharged: the bank's own tRC, tRP, tRFC and
// blocked time, and what its rank admits.
func (s *System) ActEarliest(bank int) uint64 {
	return max(s.Banks[bank].ActReady, s.RankActEarliest(s.RankOf(bank), s.GroupOf(bank)))
}

// RankActEarliest is the part of ActEarliest that no single bank owns:
// the earliest cycle the rank admits an ACT to any bank of group — tRRD_S
// or tRRD_L against the last ACT, and tFAW. It moves only when the rank
// activates, so a scheduler can hold it once per (rank, group) next to
// per-bank ready times instead of re-deriving it per bank.
func (s *System) RankActEarliest(rank, group int) uint64 {
	r := &s.Ranks[rank]
	var t uint64
	if r.anyAct {
		rrd := s.T.RRDS
		if group == r.lastBG {
			rrd = s.T.RRDL
		}
		t = max(t, r.lastAct+rrd)
	}
	// tFAW: the fourth-last ACT must be at least FAW ago.
	if r.actCount >= 4 {
		t = max(t, r.actTimes[r.actIdx]+s.T.FAW)
	}
	return t
}

// PreEarliest returns the earliest cycle a PRE could issue to bank,
// assuming its row stays open: tRAS, tRTP, tWR and blocked time.
func (s *System) PreEarliest(bank int) uint64 { return s.Banks[bank].PreReady }

// ColumnEarliest returns the earliest cycle a RD/WR could issue to the
// open row of bank, assuming it stays open: the bank's tRCD, tCCD_L and
// blocked time, and the data bus.
func (s *System) ColumnEarliest(bank int, write bool) uint64 {
	return max(s.Banks[bank].ColReady, s.BusEarliest(write))
}

// BusEarliest is the part of ColumnEarliest that no single bank owns:
// the earliest cycle a RD (or WR) may issue for its burst, CL (CWL)
// later, to start once the previous burst has left the data bus. It moves
// only when a column command issues.
func (s *System) BusEarliest(write bool) uint64 {
	lat := s.T.CL
	if write {
		lat = s.T.CWL
	}
	return s.Chan.DataFree - min(s.Chan.DataFree, lat)
}

// BlockBank blocks a bank for extra cycles (row migration, swap): no
// command of any class issues to it before cycle+busyCycles.
func (s *System) BlockBank(bank int, cycle, busyCycles uint64) {
	b := &s.Banks[bank]
	until := cycle + busyCycles
	b.ActReady = max(b.ActReady, until)
	b.ColReady = max(b.ColReady, until)
	b.PreReady = max(b.PreReady, until)
}
