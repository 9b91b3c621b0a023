package sim

import (
	"context"
	"reflect"
	"testing"

	"svard/internal/memctrl"
	"svard/internal/obs"
)

// TestRecordedMatchesUnrecorded is the observability no-interference
// contract: attaching a Recorder must not change a single bit of the
// Result, across defenses and both engine loops.
func TestRecordedMatchesUnrecorded(t *testing.T) {
	for _, defense := range append([]string{"none"}, DefenseNames...) {
		for _, noSkip := range []bool{false, true} {
			cfg := diffBase()
			cfg.Defense = defense
			cfg.Mix = []string{"mcf06", "ycsb-a"}
			cfg.Svard = defense != "none"
			cfg.NoSkip = noSkip
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &obs.Recorder{}
			recorded, err := RunRecorded(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, recorded) {
				t.Errorf("%s noskip=%v: recorded run diverged:\nplain:    %+v\nrecorded: %+v",
					defense, noSkip, plain, recorded)
			}
			if rec.Counters.Ticks == 0 {
				t.Errorf("%s noskip=%v: recorder saw no ticks", defense, noSkip)
			}
		}
	}
}

// TestRecorderCounterInvariants cross-checks the engine counters
// against the engine's own contract: the naive loop ticks every cycle,
// so naive ticks == skip ticks + skipped cycles; and every jump is
// attributed to exactly one bound source.
func TestRecorderCounterInvariants(t *testing.T) {
	cfg := diffBase()
	cfg.Defense = "para"
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.Svard = true

	skipRec := &obs.Recorder{}
	if _, err := RunRecorded(cfg, skipRec); err != nil {
		t.Fatal(err)
	}
	naiveCfg := cfg
	naiveCfg.NoSkip = true
	naiveRec := &obs.Recorder{}
	if _, err := RunRecorded(naiveCfg, naiveRec); err != nil {
		t.Fatal(err)
	}

	s, n := skipRec.Counters, naiveRec.Counters
	if s.SkipJumps == 0 || s.SkippedCycles == 0 {
		t.Fatalf("skip engine recorded no jumps: %+v", s.EngineCounters)
	}
	if s.Ticks+s.SkippedCycles != n.Ticks {
		t.Errorf("skip ticks %d + skipped %d != naive ticks %d", s.Ticks, s.SkippedCycles, n.Ticks)
	}
	if n.SkipJumps != 0 || n.SkippedCycles != 0 || n.ActiveTicks != 0 {
		t.Errorf("naive loop must not record skip-engine counters: %+v", n.EngineCounters)
	}
	bounds := s.BoundTracker + s.BoundController + s.BoundCore + s.BoundHorizon
	if bounds != s.SkipJumps {
		t.Errorf("bound attribution %d != jumps %d (tracker %d ctrl %d core %d horizon %d)",
			bounds, s.SkipJumps, s.BoundTracker, s.BoundController, s.BoundCore, s.BoundHorizon)
	}
	// Both loops execute the identical schedule, so the behavioral
	// controller counters (stalls, directives) agree exactly. The scan
	// and wake-up-bound counters measure simulator effort, not behavior:
	// the naive loop ticks the controller every cycle and legitimately
	// scans far more, and it never asks for a wake-up bound.
	sb, nb := s.ControllerCounters, n.ControllerCounters
	sb.ScanPasses, sb.ScanEntries, sb.NextEventCalls, sb.NextEventScans = 0, 0, 0, 0
	nb.ScanPasses, nb.ScanEntries = 0, 0
	if nb.NextEventCalls != 0 || nb.NextEventScans != 0 {
		t.Errorf("naive loop evaluated wake-up bounds: %+v", nb)
	}
	if !reflect.DeepEqual(sb, nb) {
		t.Errorf("behavioral controller counters diverge between loops:\nskip:  %+v\nnaive: %+v", sb, nb)
	}
	if n.ScanPasses < s.ScanPasses {
		t.Errorf("naive loop scanned less than the skip engine (%d < %d)", n.ScanPasses, s.ScanPasses)
	}
	// A pass examines queue entries only up to its pick, and none when no
	// bank has anything ready — the naive loop's passes mostly end so.
	queue := uint64(memctrl.DefaultConfig(cfg.RowsPerBank).ReadQ)
	if s.ScanPasses == 0 || s.ScanEntries == 0 || s.ScanEntries > s.ScanPasses*queue || n.ScanEntries > n.ScanPasses*queue {
		t.Errorf("scheduler scan counters implausible: skip %+v, naive %+v", s.ControllerCounters, n.ControllerCounters)
	}
	// para never throttles, so no evaluation may have needed the scan.
	if s.NextEventCalls == 0 || s.NextEventScans != 0 {
		t.Errorf("wake-up bound counters implausible: %+v", s.ControllerCounters)
	}
	// para under attack mixes issues neighbor refreshes.
	if s.DirRefreshVictim == 0 {
		t.Errorf("para recorded no refresh-victim directives: %+v", s.ControllerCounters)
	}
}

// TestPooledRecordedDeterministic is the dirty-arena contract for
// telemetry: a pooled recorded run after a truncated, state-dirtying
// run must produce the identical Result AND identical counters as a
// fresh recorded run — the arena reset covers the counter fields too.
func TestPooledRecordedDeterministic(t *testing.T) {
	pool := &arenaPool{}

	dirty := diffBase()
	dirty.Defense = "hydra"
	dirty.Mix = []string{"attack:hydra", "mcf06"}
	dirty.MaxCycles = 30_000
	dirtyRec := &obs.Recorder{}
	if _, err := pool.run(dirty, dirtyRec); err != nil {
		t.Fatal(err)
	}
	if dirtyRec.Counters.Ticks == 0 {
		t.Fatal("dirtying run recorded nothing")
	}

	cfg := diffBase()
	cfg.Defense = "rrs"
	cfg.Mix = []string{"lbm06", "ycsb-a"}
	freshRec := &obs.Recorder{}
	fresh, err := RunRecorded(cfg, freshRec)
	if err != nil {
		t.Fatal(err)
	}
	pooledRec := &obs.Recorder{}
	pooled, err := pool.run(cfg, pooledRec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("pooled recorded run diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}
	if !reflect.DeepEqual(freshRec.Counters, pooledRec.Counters) {
		t.Errorf("dirty arena leaked into counters:\nfresh:  %+v\npooled: %+v",
			freshRec.Counters, pooledRec.Counters)
	}

	// A nil recorder through the pooled recorded entry point is the
	// disabled path and must still work.
	nilRes, err := pool.run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, nilRes) {
		t.Error("nil-recorder pooled run diverged")
	}
}

// TestRecorderPhases pins the span timeline: build, warmup, run, and
// fold must all complete, in order.
func TestRecorderPhases(t *testing.T) {
	cfg := diffBase()
	cfg.Defense = "para"
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	rec := &obs.Recorder{}
	if _, err := RunRecorded(cfg, rec); err != nil {
		t.Fatal(err)
	}
	var prevEnd int64 = -1 << 62
	for _, p := range []obs.Phase{obs.PhaseBuild, obs.PhaseWarmup, obs.PhaseRun, obs.PhaseFold} {
		start, end, ok := rec.Span(p)
		if !ok {
			t.Fatalf("phase %s never completed", p)
		}
		if start.UnixNano() < prevEnd {
			t.Errorf("phase %s starts before the previous phase ends", p)
		}
		prevEnd = end.UnixNano()
	}
	if _, _, ok := rec.Span(obs.PhaseWait); ok {
		t.Error("the sim itself must not stamp the wait phase (that is the campaign's)")
	}
}

// TestGoldenSweepBitIdenticalRecorded runs the golden Fig. 12 sweep
// twice — plain, and with a fresh Recorder attached to every cell —
// and requires identical cells. With the golden fixture tests beside
// it, this proves tracing can be left on for fixture-checked runs.
func TestGoldenSweepBitIdenticalRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is seconds-scale")
	}
	opt := goldenFig12Options()
	plain, err := RunFig12Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	recorded := opt
	recorded.Runner = func(cfg Config) (Result, error) {
		return PooledRunRecorded(cfg, &obs.Recorder{})
	}
	cells, err := RunFig12Ctx(context.Background(), recorded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cells) {
		t.Error("recorded golden sweep diverged from the plain sweep")
	}
}
