package protocheck

import (
	"reflect"
	"strings"
	"testing"

	"svard/internal/mem"
)

// tt is a timing set in which every rule can be the binding one: tRC
// exceeds tRAS+tRP, tCCD_S exceeds the burst, and so on.
var tt = mem.Timing{
	RCD: 10, RAS: 30, RP: 12, RC: 50, CL: 7, CWL: 5, BL: 4,
	CCDS: 6, CCDL: 8, RRDS: 4, RRDL: 6, FAW: 40,
	WR: 15, WTRS: 2, WTRL: 9, RTP: 8, RFC: 100,
}

// Two ranks of four groups of two banks: bank 1 shares bank 0's group,
// bank 2 opens the next group, bank 8 the next rank.
func newTest() *Checker { return New(tt, 2, 4, 2) }

func act(b, row int, at uint64) mem.Command {
	return mem.Command{Kind: 'A', Bank: b, Row: row, Cycle: at}
}
func pre(b int, at uint64) mem.Command { return mem.Command{Kind: 'P', Bank: b, Cycle: at} }
func rd(b, row int, at uint64) mem.Command {
	return mem.Command{Kind: 'C', Bank: b, Row: row, Cycle: at}
}
func wr(b, row int, at uint64) mem.Command {
	return mem.Command{Kind: 'C', Bank: b, Row: row, Write: true, Cycle: at}
}
func ref(rank int, at uint64) mem.Command { return mem.Command{Kind: 'R', Bank: rank, Cycle: at} }

// TestEnforcedTimingRules: after each (legal) prefix the probe command
// breaks exactly the named rule one cycle before its Cycle and nothing at
// it — each rule fires, alone, and at the right distance.
func TestEnforcedTimingRules(t *testing.T) {
	// Banks 0 and 1 of group 0 and bank 2 of group 1 open.
	open := []mem.Command{act(0, 1, 0), act(2, 1, 4), act(1, 1, 8)}
	for _, tc := range []struct {
		rule   Rule
		prefix []mem.Command
		probe  mem.Command // at its first legal cycle
	}{
		{TRP, []mem.Command{act(0, 1, 0), pre(0, 45)}, act(0, 2, 57)},
		{TRC, []mem.Command{act(0, 1, 0), pre(0, 30)}, act(0, 2, 50)},
		{TRRDS, []mem.Command{act(0, 1, 0)}, act(2, 1, 4)},
		{TRRDL, []mem.Command{act(0, 1, 0)}, act(1, 1, 6)},
		{TFAW, []mem.Command{act(0, 1, 0), act(2, 1, 4), act(4, 1, 8), act(6, 1, 12)}, act(1, 1, 40)},
		{ActInRefresh, []mem.Command{ref(0, 0)}, act(0, 1, 100)},
		{TRAS, []mem.Command{act(0, 1, 0)}, pre(0, 30)},
		{TRTP, []mem.Command{act(0, 1, 0), rd(0, 1, 25)}, pre(0, 33)},
		{TWR, []mem.Command{act(0, 1, 0), wr(0, 1, 10)}, pre(0, 34)},
		{TRCD, []mem.Command{act(0, 1, 0)}, rd(0, 1, 10)},
		{TCCDL, []mem.Command{act(0, 1, 0), rd(0, 1, 10)}, rd(0, 1, 18)},
		{TCCDL, append(open, rd(0, 1, 20)), rd(1, 1, 28)},
		{TCCDS, append(open, rd(0, 1, 20)), rd(2, 1, 26)},
		{TWTRL, append(open, wr(0, 1, 20)), rd(1, 1, 38)},
		{TWTRS, append(open, wr(0, 1, 20)), rd(2, 1, 31)},
		// The ranks share only the bus, so on another rank it binds alone.
		{BusOverlap, []mem.Command{act(0, 1, 0), act(8, 1, 4), rd(0, 1, 12)}, rd(8, 1, 16)},
		// A write's shorter latency: its burst must still wait for the read's.
		{BusOverlap, []mem.Command{act(0, 1, 0), act(8, 1, 4), rd(0, 1, 12)}, wr(8, 1, 18)},
		{RefInRefresh, []mem.Command{ref(0, 0)}, ref(0, 100)},
		{TRPBeforeREF, []mem.Command{act(0, 1, 0), pre(0, 30)}, ref(0, 42)},
	} {
		c := newTest()
		for _, cmd := range tc.prefix {
			c.Observe(cmd)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("%s: prefix is not legal: %v", tc.rule, err)
		}
		if got := c.Check(tc.probe); got != nil {
			t.Errorf("%s: %s at cycle %d breaks %v, want legal", tc.rule, describe(tc.probe), tc.probe.Cycle, got)
		}
		early := tc.probe
		early.Cycle--
		if got := c.Check(early); !reflect.DeepEqual(got, []Rule{tc.rule}) {
			t.Errorf("%s: %s at cycle %d breaks %v, want exactly that rule", tc.rule, describe(early), early.Cycle, got)
		}
	}
}

// TestTRRDLIsPerGroup: tRRD_L is measured from the group's own last ACT,
// not only from the rank's — which differ once tRRD_L exceeds two tRRD_S
// (in neither preset; mem.System keeps the rank's last ACT alone).
func TestTRRDLIsPerGroup(t *testing.T) {
	long := tt
	long.RRDL = 10
	c := New(long, 1, 4, 2)
	c.Observe(act(0, 1, 0))
	c.Observe(act(2, 1, 4))
	if got := c.Check(act(1, 1, 9)); !reflect.DeepEqual(got, []Rule{TRRDL}) {
		t.Errorf("ACT to group 0 at 9 after ACTs to group 0 at 0 and group 1 at 4: breaks %v, want tRRD_L", got)
	}
	if got := c.Check(act(1, 1, 10)); got != nil {
		t.Errorf("the same ACT at 10: breaks %v", got)
	}
}

// TestRanksShareOnlyTheBus: tRRD, tFAW and tRFC are per rank; the data
// bus is the channel's.
func TestRanksShareOnlyTheBus(t *testing.T) {
	c := newTest()
	for _, cmd := range []mem.Command{act(0, 1, 0), act(2, 1, 4), act(4, 1, 8), act(6, 1, 12), ref(1, 13), rd(0, 1, 14)} {
		c.Observe(cmd)
	}
	if got := c.Check(act(8, 1, 113)); got != nil {
		t.Errorf("ACT on rank 1 after its tRFC, inside rank 0's tFAW: breaks %v", got)
	}
	c.Observe(act(8, 1, 113))
	if got := c.Check(rd(8, 1, 123)); got != nil {
		t.Errorf("RD on rank 1: breaks %v", got)
	}
	c.Observe(rd(0, 1, 122))
	if got := c.Check(rd(8, 1, 123)); !reflect.DeepEqual(got, []Rule{BusOverlap}) {
		t.Errorf("RD on rank 1 one cycle after rank 0's RD: breaks %v, want the bus", got)
	}
}

func TestEnforcedStateRules(t *testing.T) {
	for _, tc := range []struct {
		rule   Rule
		prefix []mem.Command
		probe  mem.Command
	}{
		{ActToOpenBank, []mem.Command{act(0, 1, 0)}, act(0, 2, 500)},
		{PreToClosedBank, nil, pre(0, 500)},
		{PreToClosedBank, []mem.Command{act(0, 1, 0), pre(0, 30)}, pre(0, 500)},
		{ColumnToWrongRow, []mem.Command{act(0, 1, 0)}, rd(0, 2, 500)},
		{ColumnToWrongRow, []mem.Command{act(0, 1, 0), pre(0, 30)}, wr(0, 1, 500)},
		{RefWithOpenBank, []mem.Command{act(1, 1, 0)}, ref(0, 500)},
	} {
		c := newTest()
		for _, cmd := range tc.prefix {
			c.Observe(cmd)
		}
		if got := c.Check(tc.probe); !reflect.DeepEqual(got, []Rule{tc.rule}) {
			t.Errorf("%s: %s breaks %v, want exactly that rule", tc.rule, describe(tc.probe), got)
		}
		if c.Err() != nil {
			t.Errorf("%s: Check recorded a violation: %v", tc.rule, c.Err())
		}
		c.Observe(tc.probe)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), tc.rule.String()) {
			t.Errorf("%s: Err after observing the command = %v", tc.rule, err)
		}
	}
}

// TestReportedRules: what Observe reports of a timing rule — here the five
// the model once left out, cross-bank tCCD_L, tCCD_S, tWTR_L, tWTR_S and
// tRP before REF — is counted per command it applies to, and a broken one
// is an error that names it.
func TestReportedRules(t *testing.T) {
	open := []mem.Command{act(0, 1, 0), act(2, 1, 4), act(1, 1, 8)}
	for _, tc := range []struct {
		rule   Rule
		prefix []mem.Command
		probe  mem.Command // at the first cycle the rule allows
	}{
		{TCCDL, append(open, rd(0, 1, 20)), rd(1, 1, 28)},
		{TCCDS, append(open, rd(0, 1, 20)), rd(2, 1, 26)},
		{TWTRL, append(open, wr(0, 1, 20)), rd(1, 1, 38)},
		{TWTRS, append(open, wr(0, 1, 20)), rd(2, 1, 31)},
		{TRPBeforeREF, []mem.Command{act(0, 1, 0), pre(0, 30)}, ref(0, 42)},
	} {
		for _, early := range []uint64{0, 1} {
			c := newTest()
			for _, cmd := range tc.prefix {
				c.Observe(cmd)
			}
			cmd := tc.probe
			cmd.Cycle -= early
			c.Observe(cmd)
			if got, want := c.Counts[tc.rule], (Count{Broken: early, Checked: 1}); got != want {
				t.Errorf("%s, %d cycles early: counted %+v, want %+v", tc.rule, early, got, want)
			}
			err := c.Err()
			if early == 0 && err != nil {
				t.Errorf("%s, at its bound: %v", tc.rule, err)
			}
			if early == 1 && (err == nil || !strings.Contains(err.Error(), tc.rule.String())) {
				t.Errorf("%s, one cycle early: Err = %v, want the rule named", tc.rule, err)
			}
		}
	}
}

func TestCommandsCountsTheStream(t *testing.T) {
	c := newTest()
	for _, cmd := range []mem.Command{act(0, 1, 0), rd(0, 1, 10), wr(0, 1, 30), pre(0, 60), ref(0, 80), ref(1, 80)} {
		c.Observe(cmd)
	}
	if a, p, col, r := c.Commands(); a != 1 || p != 1 || col != 2 || r != 2 {
		t.Errorf("Commands = %d ACT, %d PRE, %d RD/WR, %d REF; want 1, 1, 2, 2", a, p, col, r)
	}
	if err := c.Err(); err != nil {
		t.Errorf("legal stream: %v", err)
	}
}
