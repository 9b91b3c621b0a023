package sim

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"svard/internal/memctrl"
	"svard/internal/obs"
)

// TestRecordedMatchesUnrecorded is the observability no-interference
// contract: attaching a Recorder must not change a single bit of the
// Result, across defenses and both engine loops. Counters depend on
// whether a cell replays its twin, so each event-engine case runs with
// the twin memo pinned: absent (every cell simulates, and the recorder
// must see its ticks), then holding the case's twin (an eligible cell
// replays or diverges, and the recorder must say which). The reference
// loop runs without a memo.
func TestRecordedMatchesUnrecorded(t *testing.T) {
	for _, defense := range append([]string{"none"}, DefenseNames...) {
		cfg := diffBase()
		cfg.Defense = defense
		cfg.Mix = []string{"mcf06", "ycsb-a"}
		cfg.Svard = defense != "none"
		held := &twinMemo{}
		if _, err := testEnv(held).runOn(newPoolState(), twinConfig(cfg), nil); err != nil {
			t.Fatal(err)
		}
		for _, memo := range []*twinMemo{nil, held} {
			plain, err := testEnv(memo).runOn(newPoolState(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := &obs.Recorder{}
			recorded, err := testEnv(memo).runOn(newPoolState(), cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, recorded) {
				t.Errorf("%s memo=%v: recorded run diverged:\nplain:    %+v\nrecorded: %+v",
					defense, memo != nil, plain, recorded)
			}
			c := rec.Counters
			tried := memo != nil && defense != "none"
			if got := c.TwinReplays + c.TwinDiverged; got != map[bool]uint64{true: 1}[tried] {
				t.Errorf("%s memo=%v: twin_replays=%d twin_diverged=%d", defense, memo != nil, c.TwinReplays, c.TwinDiverged)
			}
			if (c.Ticks == 0) != (c.TwinReplays == 1) {
				t.Errorf("%s memo=%v: %d ticks with twin_replays=%d", defense, memo != nil, c.Ticks, c.TwinReplays)
			}
		}
		var naive protocolTally
		plain, err := naive.runWatched(cfg, (*machine).runNaive, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := &obs.Recorder{}
		recorded, err := naive.runWatched(cfg, (*machine).runNaive, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, recorded) {
			t.Errorf("%s reference loop: recorded run diverged:\nplain:    %+v\nrecorded: %+v", defense, plain, recorded)
		}
		if c := rec.Counters; c.Ticks == 0 || c.TwinReplays+c.TwinDiverged+c.TwinMissed != 0 {
			t.Errorf("%s reference loop: %d ticks, twin counters %d/%d/%d", defense, c.Ticks, c.TwinReplays, c.TwinDiverged, c.TwinMissed)
		}
	}
}

// TestRecorderCounterInvariants cross-checks the engine counters
// against the engine's own contract: the naive loop ticks every cycle,
// so naive ticks == skip ticks + skipped cycles; and every jump is
// attributed to exactly one bound source. Both runs simulate (each
// machine is built with no twin memo): a replay ticks nothing.
func TestRecorderCounterInvariants(t *testing.T) {
	cfg := diffBase()
	cfg.Defense = "para"
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.Svard = true

	skipRec, naiveRec := &obs.Recorder{}, &obs.Recorder{}
	runBothRecorded(t, cfg, skipRec, naiveRec)

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
	bounds := s.BoundController + s.BoundCore + s.BoundHorizon
	if bounds != s.SkipJumps {
		t.Errorf("bound attribution %d != jumps %d (ctrl %d core %d horizon %d)",
			bounds, s.SkipJumps, s.BoundController, s.BoundCore, s.BoundHorizon)
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
// The twin memo is pinned, since counters depend on it: absent, then
// holding the cell's twin (the rrs cell diverges from it, so the arena
// is dirtied again by the abandoned replay).
func TestPooledRecordedDeterministic(t *testing.T) {
	cfg := diffBase()
	cfg.Defense = "rrs"
	cfg.Mix = []string{"lbm06", "ycsb-a"}
	held := &twinMemo{}
	if _, err := testEnv(held).runOn(newPoolState(), twinConfig(cfg), nil); err != nil {
		t.Fatal(err)
	}
	for _, memo := range []*twinMemo{nil, held} {
		st := newPoolState()
		dirty := diffBase()
		dirty.Defense = "hydra"
		dirty.Mix = []string{"attack:hydra", "mcf06"}
		dirty.MaxCycles = 30_000
		dirtyRec := &obs.Recorder{}
		if _, err := testEnv(memo).runOn(st, dirty, dirtyRec); err != nil {
			t.Fatal(err)
		}
		if dirtyRec.Counters.Ticks == 0 {
			t.Fatal("dirtying run recorded nothing")
		}

		freshRec := &obs.Recorder{}
		fresh, err := testEnv(memo).runOn(newPoolState(), cfg, freshRec)
		if err != nil {
			t.Fatal(err)
		}
		pooledRec := &obs.Recorder{}
		pooled, err := testEnv(memo).runOn(st, cfg, pooledRec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("memo=%v: pooled recorded run diverged:\nfresh:  %+v\npooled: %+v", memo != nil, fresh, pooled)
		}
		if !reflect.DeepEqual(freshRec.Counters, pooledRec.Counters) {
			t.Errorf("memo=%v: dirty arena leaked into counters:\nfresh:  %+v\npooled: %+v",
				memo != nil, freshRec.Counters, pooledRec.Counters)
		}
		if want := map[bool]uint64{true: 1}[memo != nil]; pooledRec.Counters.TwinDiverged != want {
			t.Errorf("memo=%v: twin_diverged=%d, want %d", memo != nil, pooledRec.Counters.TwinDiverged, want)
		}

		// A nil recorder on the dirty arena is the disabled path and must
		// still work.
		nilRes, err := testEnv(memo).runOn(st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, nilRes) {
			t.Errorf("memo=%v: nil-recorder pooled run diverged", memo != nil)
		}
	}
}

// TestRecorderPhases pins the span timeline: build, warmup, run, and
// fold must all complete, in order. A cell replayed from its twin keeps
// build, run (the replay) and fold, and has no warmup.
func TestRecorderPhases(t *testing.T) {
	simulated := diffBase()
	simulated.Defense = "para"
	simulated.Mix = []string{"mcf06", "ycsb-a"}
	replayed := tinyBase()
	replayed.Defense = "rrs" // never acts at nRH 1024 on this shape
	replayed.Mix = []string{"mcf06", "ycsb-a"}
	held := &twinMemo{}
	if _, err := testEnv(held).runOn(newPoolState(), twinConfig(replayed), nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		memo   *twinMemo
		phases []obs.Phase
	}{
		{"simulated", simulated, nil, []obs.Phase{obs.PhaseBuild, obs.PhaseWarmup, obs.PhaseRun, obs.PhaseFold}},
		{"replayed", replayed, held, []obs.Phase{obs.PhaseBuild, obs.PhaseRun, obs.PhaseFold}},
	} {
		rec := &obs.Recorder{}
		if _, err := testEnv(tc.memo).runOn(newPoolState(), tc.cfg, rec); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]uint64{true: 1}[tc.memo != nil]; rec.Counters.TwinReplays != want {
			t.Fatalf("%s: twin_replays=%d, want %d", tc.name, rec.Counters.TwinReplays, want)
		}
		var prevEnd int64 = -1 << 62
		for _, p := range tc.phases {
			start, end, ok := rec.Span(p)
			if !ok {
				t.Fatalf("%s: phase %s never completed", tc.name, p)
			}
			if start.UnixNano() < prevEnd {
				t.Errorf("%s: phase %s starts before the previous phase ends", tc.name, p)
			}
			prevEnd = end.UnixNano()
		}
		if _, _, ok := rec.Span(obs.PhaseWarmup); ok != slices.Contains(tc.phases, obs.PhaseWarmup) {
			t.Errorf("%s: warmup phase stamped = %v", tc.name, ok)
		}
		if _, _, ok := rec.Span(obs.PhaseWait); ok {
			t.Errorf("%s: the sim itself must not stamp the wait phase (that is the campaign's)", tc.name)
		}
	}
}

// TestGoldenSweepBitIdenticalRecorded runs the golden Fig. 12 sweep with
// a fresh Recorder attached to every cell and requires the fixture's
// cells, which proves tracing can be left on for fixture-checked runs.
func TestGoldenSweepBitIdenticalRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is seconds-scale")
	}
	opt := goldenFig12Options()
	opt.Runner = func(cfg Config) (Result, error) {
		return PooledRunRecorded(cfg, &obs.Recorder{})
	}
	cells, err := RunFig12Ctx(context.Background(), opt)
	sameAsGolden(t, "fig12_golden.json", cells, err)
}
