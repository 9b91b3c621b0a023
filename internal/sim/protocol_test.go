package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"svard/internal/mem/protocheck"
)

// protocolTally runs simulations with the DRAM protocol checker
// (internal/mem/protocheck) attached to every channel's device array, and
// sums what the checkers counted. It is safe for a sweep's concurrent
// workers.
type protocolTally struct {
	mu     sync.Mutex
	counts [protocheck.NumRules]protocheck.Count
}

// run is Run(cfg) — a machine from fresh allocations, driven by m.run —
// with the checkers watching. Any command that breaks an enforced rule,
// or a checker that did not see exactly the commands the controllers
// counted, is an error. It is a Runner.
func (p *protocolTally) run(cfg Config) (Result, error) {
	m, err := newMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	chks := make([]*protocheck.Checker, len(m.mcs))
	for ch, mc := range m.mcs {
		chks[ch] = protocheck.Attach(mc.Sys)
	}
	res := m.run(cfg)
	var act, pre, col, ref uint64
	for ch, chk := range chks {
		if err := chk.Err(); err != nil {
			return res, fmt.Errorf("%s on %s, nRH %v, mix %v, channel %d: illegal DRAM command stream:\n%w",
				cfg.Defense, backendLabel(cfg.Backend), cfg.NRH, cfg.Mix, ch, err)
		}
		a, p, c, r := chk.Commands()
		act, pre, col, ref = act+a, pre+p, col+c, ref+r
	}
	if mc := res.MC; act != mc.Acts || pre != mc.Pres || col != mc.Reads+mc.Writes || ref != mc.Refreshes {
		return res, fmt.Errorf("checkers saw %d ACT, %d PRE, %d RD/WR, %d REF; the controllers issued %+v", act, pre, col, ref, mc)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, chk := range chks {
		for r, n := range chk.Counts {
			p.counts[r].Broken += n.Broken
			p.counts[r].Checked += n.Checked
		}
	}
	return res, nil
}

// sameAsGolden requires a checked sweep's cells to be the fixture's.
func sameAsGolden[T any](t *testing.T, fixture string, cells []T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var golden struct{ Cells []T }
	readGolden(t, filepath.Join("testdata", fixture), &golden)
	compareCells(t, cells, golden.Cells)
}

// TestGoldenProtocol runs the three golden sweeps under the protocol
// checker. The cells must still be the fixtures' (the checker observes, it
// never steers), no command may break an enforced rule, and the counts of
// the reported rules — the constraints mem.Timing carries and mem.System
// does not enforce — are pinned exactly: they are the table in
// EXPERIMENTS.md ("DRAM constraints carried in mem.Timing but not
// enforced"), and a change that starts enforcing one shows up here.
func TestGoldenProtocol(t *testing.T) {
	ctx := context.Background()
	// {broken, checked} per reported rule, in Rule order: tCCD_L across
	// banks, tCCD_S, tWTR_L, tWTR_S, tRP before REF.
	type reported [protocheck.NumRules - protocheck.TCCDLAcrossBanks][2]uint64
	for _, tc := range []struct {
		name  string
		sweep func(t *testing.T, run Runner)
		want  reported
	}{
		{"fig12", func(t *testing.T, run Runner) {
			opt := goldenFig12Options()
			opt.Runner = run
			cells, err := RunFig12Ctx(ctx, opt)
			sameAsGolden(t, "fig12_golden.json", cells, err)
		}, reported{{7794, 106047}, {114, 192751}, {1093, 62626}, {1057, 78148}, {430, 430}}},
		{"fig12_hbm2", func(t *testing.T, run Runner) {
			opt := goldenFig12HBM2Options()
			opt.Runner = run
			cells, err := RunFig12Ctx(ctx, opt)
			sameAsGolden(t, "fig12_hbm2_golden.json", cells, err)
		}, reported{{1580, 56898}, {88, 109050}, {979, 34603}, {1568, 43988}, {496, 496}}},
		{"fig13", func(t *testing.T, run Runner) {
			opt := goldenFig13Options()
			opt.Runner = run
			cells, err := RunFig13Ctx(ctx, opt)
			sameAsGolden(t, "fig13_golden.json", cells, err)
		}, reported{{33865, 499197}, {4228, 715422}, {11831, 481454}, {25334, 498023}, {1633, 1642}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tally protocolTally
			tc.sweep(t, tally.run)
			var got reported
			for i := range got {
				n := tally.counts[int(protocheck.TCCDLAcrossBanks)+i]
				got[i] = [2]uint64{n.Broken, n.Checked}
			}
			if got != tc.want {
				t.Errorf("reported-rule counts moved (EXPERIMENTS.md's table has them too):\n got %v\nwant %v", got, tc.want)
			}
			for r, n := range tally.counts {
				t.Logf("%-20s %8d / %8d", protocheck.Rule(r), n.Broken, n.Checked)
			}
		})
	}
}
