package mem

import (
	"testing"

	"svard/internal/dram"
)

func testSystem() *System {
	t := CyclesFrom(dram.DDR4Timing(3200), 3.2)
	return NewSystem(t, 2, 4, 4, 8192)
}

func TestCyclesFromRounding(t *testing.T) {
	tim := CyclesFrom(dram.DDR4Timing(3200), 3.2)
	// 36 ns * 3.2 GHz = 115.2 → 116 cycles (rounded up).
	if tim.RAS != 116 {
		t.Errorf("RAS = %d cycles, want 116", tim.RAS)
	}
	if tim.RC != tim.RAS+tim.RP && tim.RC < tim.RAS {
		t.Errorf("RC = %d inconsistent with RAS %d + RP %d", tim.RC, tim.RAS, tim.RP)
	}
	if tim.REFW <= tim.REFI {
		t.Error("REFW must exceed REFI")
	}
}

// TestCyclesFromWTRFromPreset: the write-to-read turnarounds come from
// the dram.Timing preset (the regression was hard-coded DDR4 values at
// this layer, which every non-DDR4 backend would silently inherit).
func TestCyclesFromWTRFromPreset(t *testing.T) {
	ddr4 := CyclesFrom(dram.DDR4Timing(3200), 3.2)
	// 2.5 ns * 3.2 GHz = 8; 7.5 ns * 3.2 GHz = 24.
	if ddr4.WTRS != 8 || ddr4.WTRL != 24 {
		t.Errorf("DDR4 WTR = (%d, %d) cycles, want (8, 24)", ddr4.WTRS, ddr4.WTRL)
	}
	custom := dram.DDR4Timing(3200)
	custom.TWTRS, custom.TWTRL = 5.0, 10.0
	got := CyclesFrom(custom, 3.2)
	if got.WTRS != 16 || got.WTRL != 32 {
		t.Errorf("custom WTR = (%d, %d) cycles, want (16, 32) — WTR not read from the preset", got.WTRS, got.WTRL)
	}
	hbm2 := CyclesFrom(dram.HBM2Timing(), 3.2)
	if hbm2.WTRL == ddr4.WTRL {
		t.Error("HBM2 WTRL identical to DDR4; preset not honored")
	}
}

func TestActPreCycleTiming(t *testing.T) {
	s := testSystem()
	if !s.CanACT(0, 0) {
		t.Fatal("fresh bank rejects ACT")
	}
	s.ACT(0, 42, 0)
	if s.Banks[0].OpenRow != 42 {
		t.Fatal("row not open")
	}
	if s.CanACT(0, 1_000_000) || s.CanPRE(1, 1_000_000) {
		t.Error("ACT allowed to an open bank, or PRE to a closed one")
	}
	if s.CanPRE(0, 1) {
		t.Error("PRE allowed before tRAS")
	}
	if !s.CanPRE(0, s.T.RAS) {
		t.Error("PRE rejected at tRAS")
	}
	row, on := s.PRE(0, s.T.RAS)
	if row != 42 || on != s.T.RAS {
		t.Errorf("PRE returned %d/%d", row, on)
	}
	if s.CanACT(0, s.T.RAS+1) {
		t.Error("ACT allowed before tRP")
	}
	if !s.CanACT(0, s.T.RAS+s.T.RP) {
		t.Error("ACT rejected after tRP")
	}
}

func TestTFAWBlocksFifthActivation(t *testing.T) {
	s := testSystem()
	// Four ACTs to different bank groups, spaced by tRRD_S.
	cyc := uint64(0)
	for i := 0; i < 4; i++ {
		bank := i * 4 // one per bank group
		if !s.CanACT(bank, cyc) {
			t.Fatalf("ACT %d rejected at %d", i, cyc)
		}
		s.ACT(bank, 1, cyc)
		cyc += s.T.RRDS
	}
	// The fifth ACT within tFAW of the first must be rejected.
	fifth := 16 + 1 // a bank in rank 1 (independent RRD would allow it)
	_ = fifth
	if s.CanACT(1, cyc) && cyc < s.T.FAW {
		t.Errorf("fifth ACT allowed inside tFAW window at %d", cyc)
	}
	if !s.CanACT(1, s.T.FAW+1) {
		t.Error("ACT still rejected after tFAW")
	}
}

func TestColumnTiming(t *testing.T) {
	s := testSystem()
	s.ACT(3, 7, 0)
	if s.CanColumn(3, 7, false, s.T.RCD-1) {
		t.Error("RD allowed before tRCD")
	}
	if !s.CanColumn(3, 7, false, s.T.RCD) {
		t.Error("RD rejected at tRCD")
	}
	end := s.Column(3, false, s.T.RCD)
	if end != s.T.RCD+s.T.CL+s.T.BL {
		t.Errorf("read data end = %d", end)
	}
	if s.CanColumn(3, 8, false, end) {
		t.Error("column to a different row accepted")
	}
	// Write extends the precharge horizon by tWR.
	s2 := testSystem()
	s2.ACT(0, 1, 0)
	wEnd := s2.Column(0, true, s2.T.RCD)
	if s2.Banks[0].PreReady < wEnd+s2.T.WR {
		t.Error("write recovery not enforced before PRE")
	}
}

func TestDataBusSerializesBursts(t *testing.T) {
	s := testSystem()
	s.ACT(0, 1, 0)
	s.ACT(4, 1, s.T.RRDS) // different bank group
	c := s.T.RCD + s.T.RRDS
	s.Column(0, false, c)
	// A second read whose data would overlap the first burst must wait.
	if s.CanColumn(4, 1, false, c) {
		t.Error("overlapping data bursts accepted")
	}
	if !s.CanColumn(4, 1, false, c+s.T.BL) {
		t.Error("post-burst column rejected")
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	s := testSystem()
	if s.RefreshDue(0, 0) {
		t.Error("refresh due at cycle 0")
	}
	due := s.Ranks[0].NextREF
	if !s.RefreshDue(0, due) {
		t.Error("refresh not due at tREFI")
	}
	s.REF(0, due)
	if s.CanACT(0, due+1) {
		t.Error("ACT allowed during refresh")
	}
	// Rank 1 is unaffected.
	if !s.CanACT(16, due+s.T.RRDS) {
		t.Error("other rank blocked by refresh")
	}
	if s.CanACT(0, due+s.T.RFC-1) {
		t.Error("ACT allowed before tRFC elapsed")
	}
	if !s.CanACT(0, due+s.T.RFC) {
		t.Error("ACT rejected after tRFC")
	}
}

// TestBlockBank: a blocked bank takes no command of any class before the
// window ends, whatever state it is in, and a shorter window inside a
// longer one changes nothing.
func TestBlockBank(t *testing.T) {
	s := testSystem()
	s.BlockBank(5, 100, 1000)
	if s.CanACT(5, 900) {
		t.Error("blocked bank accepts ACT")
	}
	if !s.CanACT(5, 1101) {
		t.Error("bank still blocked after busy window")
	}
	s.ACT(6, 3, 0)
	s.BlockBank(6, 100, 1000)
	s.BlockBank(6, 200, 10)
	if pre, rd, wr := s.PreEarliest(6), s.ColumnEarliest(6, false), s.ColumnEarliest(6, true); pre != 1100 || rd != 1100 || wr != 1100 {
		t.Errorf("open blocked bank: earliest PRE, RD, WR = %d, %d, %d; want 1100", pre, rd, wr)
	}
	s.PRE(6, 1100)
	if got, want := s.ActEarliest(6), 1100+s.T.RP; got != want {
		t.Errorf("ActEarliest after the blocked bank's PRE = %d, want %d", got, want)
	}
	s.BlockBank(7, 0, 50) // shorter than tRCD, tRAS: the ACT's own times stand
	s.ACT(7, 3, 60)
	if s.ColumnEarliest(7, false) != 60+s.T.RCD || s.PreEarliest(7) != 60+s.T.RAS {
		t.Errorf("ACT after a block: earliest RD %d, PRE %d", s.ColumnEarliest(7, false), s.PreEarliest(7))
	}
}

// TestResetClearsObserver: a pooled System must not report one run's
// commands to the previous run's observer, whichever way the geometry
// moved in between (32 -> 128 -> 16 banks).
func TestResetClearsObserver(t *testing.T) {
	s := testSystem()
	seen := 0
	for _, ranks := range []int{8, 1} {
		s.Observer = func(Command) { seen++ }
		s.ACT(0, 1, 0)
		s.Reset(s.T, ranks, 4, 4, 8192)
		if s.Observer != nil {
			t.Fatalf("Reset to %d ranks kept the observer", ranks)
		}
		s.ACT(0, 1, 0)
		s.Column(0, false, s.T.RCD)
		s.PRE(0, s.T.RAS)
		s.REF(0, s.T.REFI)
	}
	if seen != 2 {
		t.Errorf("observer saw %d commands, want the 2 issued while it was attached", seen)
	}
}

// TestSaveRestoreBounds: a system restored from another's saved state
// bounds every command class exactly as the original does, at every
// bank, rank and bank group — after a mix of ACTs, column reads and
// writes, PREs and a REF that leaves each window open.
func TestSaveRestoreBounds(t *testing.T) {
	a := testSystem()
	cycle := uint64(1000)
	for i, b := range []int{0, 5, 17, 22, 31} {
		a.ACT(b, 10+i, cycle)
		cycle += a.T.RCD
		a.Column(b, i%2 == 0, cycle)
		cycle += 3
	}
	a.PRE(0, cycle+a.T.RAS)
	a.REF(1, cycle+a.T.RAS+a.T.RP)
	var st State
	a.Save(&st)
	b := testSystem()
	b.Restore(&st)
	for bank := range a.Banks {
		for _, write := range []bool{false, true} {
			if a.ColumnEarliest(bank, write) != b.ColumnEarliest(bank, write) {
				t.Errorf("bank %d: column (write %v) at %d, restored %d", bank, write, a.ColumnEarliest(bank, write), b.ColumnEarliest(bank, write))
			}
		}
		if a.ActEarliest(bank) != b.ActEarliest(bank) || a.PreEarliest(bank) != b.PreEarliest(bank) || a.Banks[bank] != b.Banks[bank] {
			t.Errorf("bank %d: ACT/PRE bounds or state differ after the restore", bank)
		}
	}
	for rank := range a.Ranks {
		if a.RefEarliest(rank) != b.RefEarliest(rank) || a.Ranks[rank] != b.Ranks[rank] {
			t.Errorf("rank %d differs after the restore", rank)
		}
	}
}
