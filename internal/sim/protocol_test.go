package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"svard/internal/mem"
	"svard/internal/mem/protocheck"
	"svard/internal/memctrl"
	"svard/internal/obs"
)

// protocolTally runs simulations with the DRAM protocol checker
// (internal/mem/protocheck) attached to every channel's device array, and
// sums what the checkers counted. It is safe for a sweep's concurrent
// workers.
type protocolTally struct {
	mu     sync.Mutex
	counts [protocheck.NumRules]protocheck.Count
}

// run is Run(cfg) — a machine from fresh allocations, driven by the
// event engine — with the checkers watching. Any command that breaks an
// enforced rule, or a checker that did not see exactly the commands the
// controllers counted, is an error. It is a Runner.
func (p *protocolTally) run(cfg Config) (Result, error) {
	return p.runWatched(cfg, (*machine).runSkip, nil, nil)
}

// runWatched is run under loop with flight recorder rec attached (nil for
// none) and, when watch is not nil, tells watch every command each
// channel's controller issues, after the checker has seen it.
func (p *protocolTally) runWatched(cfg Config, loop engineLoop, rec *obs.Recorder, watch func(ch int, mc *memctrl.Controller, cmd mem.Command)) (Result, error) {
	m, err := testEnv(nil).newMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	chks := make([]*protocheck.Checker, len(m.mcs))
	for ch, mc := range m.mcs {
		chk := protocheck.Attach(mc.Sys)
		chks[ch] = chk
		if watch != nil {
			mc.Sys.Observer = func(cmd mem.Command) {
				chk.Observe(cmd)
				watch(ch, mc, cmd)
			}
		}
	}
	m.rec = rec
	res := m.run(cfg, loop)
	var act, pre, col, ref uint64
	for ch, chk := range chks {
		if err := chk.Err(); err != nil {
			return res, fmt.Errorf("%s on backend %q, nRH %v, mix %v, channel %d: illegal DRAM command stream:\n%w",
				cfg.Defense, cfg.Backend, cfg.NRH, cfg.Mix, ch, err)
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
// never steers), no command may break a rule, and the checkers must have
// seen every command the controllers issued (protocolTally.run fails
// otherwise).
func TestGoldenProtocol(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		sweep func(t *testing.T, run Runner)
	}{
		{"fig12", func(t *testing.T, run Runner) {
			opt := goldenFig12Options()
			opt.Runner = run
			cells, err := RunFig12Ctx(ctx, opt)
			sameAsGolden(t, "fig12_golden.json", cells, err)
		}},
		{"fig12_hbm2", func(t *testing.T, run Runner) {
			opt := goldenFig12HBM2Options()
			opt.Runner = run
			cells, err := RunFig12Ctx(ctx, opt)
			sameAsGolden(t, "fig12_hbm2_golden.json", cells, err)
		}},
		{"fig13", func(t *testing.T, run Runner) {
			opt := goldenFig13Options()
			opt.Runner = run
			cells, err := RunFig13Ctx(ctx, opt)
			sameAsGolden(t, "fig13_golden.json", cells, err)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tally protocolTally
			tc.sweep(t, tally.run)
			for r, n := range tally.counts {
				if n.Checked == 0 {
					t.Errorf("%s never applied: the sweep is too thin to hold the model to it", protocheck.Rule(r))
				}
				t.Logf("%-20s %8d / %8d", protocheck.Rule(r), n.Broken, n.Checked)
			}
		})
	}
}
