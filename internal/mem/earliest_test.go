package mem_test

import (
	"fmt"
	"testing"

	"svard/internal/dram"
	"svard/internal/mem"
	"svard/internal/mem/protocheck"
)

// checkEarliest holds every bank's *Earliest bound to the protocol
// checker's rules in the system's current state: the command breaks an
// enforced rule one cycle before the bound and none at it. This is the
// property the event engine skips by, checked against a statement of the
// rules that shares no code with mem.System.
func checkEarliest(t *testing.T, s *mem.System, chk *protocheck.Checker, step int) {
	t.Helper()
	exact := func(cmd mem.Command, earliest uint64) {
		t.Helper()
		what := fmt.Sprintf("step %d: %c (write=%v) to bank %d", step, cmd.Kind, cmd.Write, cmd.Bank)
		cmd.Cycle = earliest
		if broken := chk.Check(cmd); broken != nil {
			t.Fatalf("%s at its earliest cycle %d breaks %v", what, earliest, broken)
		}
		if earliest == 0 {
			return
		}
		cmd.Cycle--
		if chk.Check(cmd) == nil {
			t.Fatalf("%s is legal one cycle before its earliest cycle %d", what, earliest)
		}
	}
	for b := range s.Banks {
		row := s.Banks[b].OpenRow
		if row < 0 {
			exact(mem.Command{Kind: 'A', Bank: b}, s.ActEarliest(b))
			continue
		}
		exact(mem.Command{Kind: 'P', Bank: b, Row: row}, s.PreEarliest(b))
		exact(mem.Command{Kind: 'C', Bank: b, Row: row}, s.ColumnEarliest(b, false))
		exact(mem.Command{Kind: 'C', Bank: b, Row: row, Write: true}, s.ColumnEarliest(b, true))
	}
}

// TestEarliestMatchesCanPredicates drives a deterministic pseudo-random
// command walk over each backend's timing set and, after every step,
// cross-checks every bank's earliest-issue bounds — which define the Can*
// predicates — against the protocol checker; the walk itself must break
// no enforced rule.
func TestEarliestMatchesCanPredicates(t *testing.T) {
	ddr4 := mem.CyclesFrom(dram.DDR4Timing(3200), 3.2)
	// In both presets tRC equals tRAS+tRP to the cycle, so tRC never
	// binds; a third set stretches it until it does.
	longRC := ddr4
	longRC.RC += 8
	for name, tm := range map[string]mem.Timing{"ddr4": ddr4, "hbm2": mem.CyclesFrom(dram.HBM2Timing(), 3.2), "long-tRC": longRC} {
		t.Run(name, func(t *testing.T) {
			tm.REFI = 3000 // a refresh every ~150 steps
			s := mem.NewSystem(tm, 2, 4, 4, 8192)
			chk := protocheck.Attach(s)
			rng := uint64(0x9e3779b97f4a7c15)
			next := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			cycle := uint64(0)
			for step := 0; step < 4000; step++ {
				cycle += next(40)
				for rank := range s.Ranks {
					s.EndRefreshIfDone(rank, cycle)
					if !s.RefreshDue(rank, cycle) || s.Ranks[rank].Refreshing {
						continue
					}
					if s.AllPrecharged(rank) {
						s.REF(rank, cycle)
						continue
					}
					// Close what blocks the refresh, as the controller does.
					for b := rank * s.BanksPerRank(); b < (rank+1)*s.BanksPerRank(); b++ {
						if s.CanPRE(b, cycle) {
							s.PRE(b, cycle)
						}
					}
				}
				bank := int(next(uint64(s.TotalBanks())))
				switch b := &s.Banks[bank]; {
				case b.OpenRow < 0:
					if s.CanACT(bank, cycle) && !s.RefreshDue(s.RankOf(bank), cycle) {
						s.ACT(bank, int(next(64)), cycle)
					}
				case next(3) == 0:
					if s.CanPRE(bank, cycle) {
						s.PRE(bank, cycle)
					}
				default:
					write := next(2) == 0
					if s.CanColumn(bank, b.OpenRow, write, cycle) {
						s.Column(bank, write, cycle)
					}
				}
				checkEarliest(t, s, chk, step)
			}
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}
			if act, pre, col, ref := chk.Commands(); act < 100 || pre < 100 || col < 100 || ref < 10 {
				t.Errorf("walk too thin to mean much: %d ACT, %d PRE, %d RD/WR, %d REF", act, pre, col, ref)
			}
		})
	}
}
