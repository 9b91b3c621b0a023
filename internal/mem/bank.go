package mem

import "unsafe"

// Bank is the cycle-level state of one DRAM bank: the open row and the
// earliest cycles at which each command class may issue. A window in which
// the bank takes no command (BlockBank, REF) is written into those ready
// times.
type Bank struct {
	OpenRow   int    // -1 when precharged
	ActAt     uint64 // cycle of the last ACT (for row on-time accounting)
	ActReady  uint64 // earliest next ACT: tRC, tRP, tRFC
	ColReady  uint64 // earliest next RD/WR to the open row: tRCD
	PreReady  uint64 // earliest next PRE: tRAS, tRTP, tWR
	HitStreak int    // consecutive row-hit column commands (FR-FCFS cap)
}

// Rank tracks the windows its banks share: activation, column spacing,
// write-to-read turnaround and the refresh's precharge wait.
type Rank struct {
	actTimes [4]uint64 // rolling window of the last four ACT cycles
	actIdx   int
	actCount uint64
	lastAct  uint64
	lastBG   int
	anyAct   bool

	colReady uint64 // earliest next RD/WR: tCCD_S
	rdReady  uint64 // earliest next RD: tWTR_S after the last write burst
	refReady uint64 // earliest next REF: tRP after the last PRE

	NextREF    uint64 // next refresh deadline
	Refreshing bool
	RefUntil   uint64
}

// group holds the ready times one bank group's banks share: tCCD_L after
// the group's last RD/WR, tWTR_L after its last write burst.
type group struct {
	colReady, rdReady uint64
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
	Banks       []Bank  // [rank*banksPerRank + bank]
	groups      []group // [rank*BankGroups + group]
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
	if n := ranks * bankGroups; cap(s.groups) >= n {
		s.groups = s.groups[:n]
		clear(s.groups)
	} else {
		s.groups = make([]group, n)
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
	s.Ranks[s.RankOf(bank)].refReady = cycle + s.T.RP
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
	rank := s.RankOf(bank)
	r := &s.Ranks[rank]
	g := &s.groups[rank*s.BankGroups+s.GroupOf(bank)]
	// The next column waits tCCD_S in the rank and tCCD_L in the group (a
	// bank's own pairs included); a RD also waits tWTR after a write
	// burst. Its burst then shares the data bus (CL/CWL pipelining folded
	// into a single bus-free time).
	r.colReady = cycle + s.T.CCDS
	g.colReady = cycle + s.T.CCDL
	var dataEnd uint64
	if write {
		dataEnd = cycle + s.T.CWL + s.T.BL
		b.PreReady = max(b.PreReady, dataEnd+s.T.WR)
		r.rdReady = dataEnd + s.T.WTRS
		g.rdReady = dataEnd + s.T.WTRL
	} else {
		dataEnd = cycle + s.T.CL + s.T.BL
		b.PreReady = max(b.PreReady, cycle+s.T.RTP)
	}
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
// for RFC. The caller must have found the rank AllPrecharged and
// RefEarliest passed, so an ACT is the only command its banks could take
// and ActReady the one field to raise.
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

// RefEarliest returns the earliest cycle a REF could issue to rank,
// assuming its banks stay precharged: tRP after its last PRE and tRFC
// after its last REF.
func (s *System) RefEarliest(rank int) uint64 {
	r := &s.Ranks[rank]
	return max(r.refReady, r.RefUntil)
}

// PreEarliest returns the earliest cycle a PRE could issue to bank,
// assuming its row stays open: tRAS, tRTP, tWR and blocked time.
func (s *System) PreEarliest(bank int) uint64 { return s.Banks[bank].PreReady }

// ColumnEarliest returns the earliest cycle a RD/WR could issue to the
// open row of bank, assuming it stays open: the bank's tRCD and blocked
// time, and what its rank admits.
func (s *System) ColumnEarliest(bank int, write bool) uint64 {
	return max(s.Banks[bank].ColReady, s.RankColumnEarliest(s.RankOf(bank), s.GroupOf(bank), write))
}

// RankColumnEarliest is the part of ColumnEarliest that no single bank
// owns: the earliest cycle the rank admits a RD (or WR) to any bank of
// group — the data bus, tCCD_S in the rank, tCCD_L in the group, and for
// a RD tWTR_S and tWTR_L after the last write bursts. It moves only when
// a column command issues, so a scheduler can hold it once per (rank,
// group, direction), like RankActEarliest. Measuring the short rules from
// the rank's last column or write burst, the group's own included, agrees
// with measuring them from the other groups' while tCCD_S <= tCCD_L and
// tWTR_S <= tWTR_L, as in every DDR timing set.
func (s *System) RankColumnEarliest(rank, group int, write bool) uint64 {
	r := &s.Ranks[rank]
	g := &s.groups[rank*s.BankGroups+group]
	t := max(s.BusEarliest(write), r.colReady, g.colReady)
	if !write {
		t = max(t, r.rdReady, g.rdReady)
	}
	return t
}

// BusEarliest is the data bus's part of RankColumnEarliest, the one every
// rank shares: the earliest cycle a RD (or WR) may issue for its burst,
// CL (CWL) later, to start once the previous burst has left the bus. It
// moves only when a column command issues, and never backwards.
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

// State is a System's device state — its ranks, banks, bank groups and
// data bus — as Save copied it, for a later Restore.
type State struct {
	ranks  []Rank
	banks  []Bank
	groups []group
	ch     Channel
}

// Save copies s's device state into st, reusing st's slices.
func (s *System) Save(st *State) {
	st.ranks = append(st.ranks[:0], s.Ranks...)
	st.banks = append(st.banks[:0], s.Banks...)
	st.groups = append(st.groups[:0], s.groups...)
	st.ch = s.Chan
}

// Restore sets s's device state to st. s must have been Reset to the
// organization st was saved from; its timing, geometry and Observer stay
// its own. It allocates nothing.
func (s *System) Restore(st *State) {
	if len(st.ranks) != len(s.Ranks) || len(st.banks) != len(s.Banks) || len(st.groups) != len(s.groups) {
		panic("mem: Restore of a state saved from another organization")
	}
	copy(s.Ranks, st.ranks)
	copy(s.Banks, st.banks)
	copy(s.groups, st.groups)
	s.Chan = st.ch
}

// Bytes is the memory st's saved state occupies.
func (st *State) Bytes() int {
	return len(st.ranks)*int(unsafe.Sizeof(Rank{})) + len(st.banks)*int(unsafe.Sizeof(Bank{})) +
		len(st.groups)*int(unsafe.Sizeof(group{})) + int(unsafe.Sizeof(*st))
}
