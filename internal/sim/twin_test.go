package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"svard/internal/dram"
	"svard/internal/obs"
)

// twinConfig is cfg's defense-free twin: the sweeps' baseline of its
// (module, mix, backend).
func twinConfig(cfg Config) Config {
	cfg.Defense, cfg.Svard = "none", false
	return cfg
}

// replayOrFull runs cfg through memo — the replay path when memo holds a
// log that serves it, or the resume from its twin's checkpoint — and
// through a forced full simulation, requires the two Results to be
// bit-identical, the temporal counters equal and a resumed run to cover
// the full run's cycles, and returns the replay path's counters.
func replayOrFull(t *testing.T, st *poolState, memo *twinMemo, cfg Config) obs.Counters {
	t.Helper()
	_, c := replayOrFullResult(t, st, memo, cfg)
	return c
}

// replayOrFullResult is replayOrFull, also returning the Result.
func replayOrFullResult(t *testing.T, st *poolState, memo *twinMemo, cfg Config) (Result, obs.Counters) {
	t.Helper()
	var rec, full obs.Recorder
	got, err := testEnv(memo).runOn(st, cfg, &rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testEnv(nil).runOn(newPoolState(), cfg, &full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s nRH=%v svard=%v mix=%v temporal=%v: replay path diverged from the full run:\nreplay: %+v\nfull:   %+v",
			cfg.Defense, cfg.NRH, cfg.Svard, cfg.Mix, cfg.Temporal, got, want)
	}
	r, f := rec.Counters, full.Counters
	if r.TwinResumed == 1 && r.Ticks+r.SkippedCycles+r.ResumedCycles != f.Ticks+f.SkippedCycles {
		t.Errorf("%s nRH=%v svard=%v mix=%v: resumed at cycle %d, then ticked %d and skipped %d cycles; the full run covers %d",
			cfg.Defense, cfg.NRH, cfg.Svard, cfg.Mix, r.ResumedCycles, r.Ticks, r.SkippedCycles, f.Ticks+f.SkippedCycles)
	}
	if r.EpochAdvances != f.EpochAdvances || r.LiveDraws != f.LiveDraws {
		t.Errorf("%s nRH=%v svard=%v mix=%v temporal=%v: epoch_advances %d, live_draws %d on the replay path; %d, %d in the full run",
			cfg.Defense, cfg.NRH, cfg.Svard, cfg.Mix, cfg.Temporal, r.EpochAdvances, r.LiveDraws, f.EpochAdvances, f.LiveDraws)
	}
	return got, r
}

// benchFig12Options is the benchmark's fig12 shape: the golden fixture's
// sweep with all five defenses (42 cells).
func benchFig12Options() Fig12Options {
	opt := goldenFig12Options()
	opt.Defenses = DefenseNames
	return opt
}

// TestTwinReplayMatchesFullRun runs every cell of each golden shape, in
// sweep order, through a private memo and through a forced full run: the
// Results must be bit-identical. Most shapes run their twins into the
// memo first: static cells then replay their twin or diverge, and a
// temporal leg records its stream or replays another leg's. The erosion
// shapes also run with no twin held, as the benchmark does: each static
// leg misses and records its point's stream, and every temporal leg
// replays it. Defense-free static cells are never served. It also pins
// which cells replay to the end — the benchmark's Fig. 12 cells by name,
// the erosion sweeps' temporal legs by count — and which diverged Fig. 12
// cells resume from their twin's checkpoint, so a change that silently
// disables a fast path fails here.
func TestTwinReplayMatchesFullRun(t *testing.T) {
	must := func(jobs []Job, err error) []Job {
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	erosion := func(g ErosionGolden) []Job {
		return must(ErosionJobs(ErosionOptions{
			Base: g.Base, Process: g.Process, Intervals: g.Intervals,
			Mixes: g.Mixes, NRHs: g.NRHs, Defenses: g.Defenses,
		}))
	}
	sweeps := goldenErosionSweeps()
	bench, attacked := sweeps[0], sweeps[1]
	hbm2 := bench
	hbm2.Base.Backend = "hbm2"
	// Exactness does not depend on the budget. The benchmark shapes run
	// under the real one (their census is pinned); Fig. 13 and the
	// attacked sweep, whose attack twins and streams log 0.3–2.1 MB, past
	// a log's share, under one that holds them.
	const roomy = 1 << 30
	shapes := []struct {
		name    string
		jobs    []Job
		budget  int      // 0: twinBudget
		want    []string // static cells replayed to the end; nil: not pinned
		resumed []string // diverged static cells resumed from a checkpoint; nil: not pinned
		streams int      // temporal legs replayed from another leg's stream
		violent bool     // every replayed temporal leg counts violations
		twins   bool     // run the twins into the memo first
	}{
		{"fig12", Fig12Jobs(benchFig12Options()), 0, []string{
			"aqua 1024 false [mcf06 ycsb-a]", "aqua 1024 false [lbm06 tpcc]",
			"aqua 1024 true [mcf06 ycsb-a]", "aqua 1024 true [lbm06 tpcc]",
			"aqua 64 true [lbm06 tpcc]",
			"blockhammer 1024 false [mcf06 ycsb-a]", "blockhammer 1024 false [lbm06 tpcc]",
			"blockhammer 1024 true [mcf06 ycsb-a]", "blockhammer 1024 true [lbm06 tpcc]",
			"rrs 1024 false [mcf06 ycsb-a]", "rrs 1024 false [lbm06 tpcc]",
			"rrs 1024 true [mcf06 ycsb-a]", "rrs 1024 true [lbm06 tpcc]",
			"rrs 64 true [lbm06 tpcc]",
		}, []string{
			"aqua 64 false [mcf06 ycsb-a]", "aqua 64 false [lbm06 tpcc]",
			"aqua 64 true [mcf06 ycsb-a]",
			"blockhammer 64 false [mcf06 ycsb-a]", "blockhammer 64 false [lbm06 tpcc]",
			"blockhammer 64 true [mcf06 ycsb-a]", "blockhammer 64 true [lbm06 tpcc]",
			"hydra 1024 false [mcf06 ycsb-a]", "hydra 1024 false [lbm06 tpcc]",
			"hydra 1024 true [mcf06 ycsb-a]", "hydra 1024 true [lbm06 tpcc]",
			"rrs 64 false [mcf06 ycsb-a]", "rrs 64 false [lbm06 tpcc]",
			"rrs 64 true [mcf06 ycsb-a]",
		}, 0, false, true},
		{"fig12_hbm2", Fig12Jobs(goldenFig12HBM2Options()), 0, nil, nil, 0, false, true},
		{"fig13", must(Fig13Jobs(goldenFig13Options())), roomy, nil, nil, 0, false, true},
		{"erosion", erosion(bench), 0, nil, nil, 32, false, true},
		{"erosion_attacked", erosion(attacked), roomy, nil, nil, 8, true, true},
		{"erosion_hbm2", erosion(hbm2), 0, nil, nil, 32, false, true},
		{"erosion_streams", erosion(bench), 0, nil, nil, 48, false, false},
		{"erosion_streams_hbm2", erosion(hbm2), 0, nil, nil, 48, false, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			memo := &twinMemo{budget: sh.budget}
			if sh.twins {
				for _, j := range sh.jobs {
					probe := twinConfig(j.Config)
					probe.Defense = "para"
					if tw, _ := memo.replayable(&probe); j.Config.Temporal == nil && tw == nil {
						if _, err := testEnv(memo).runOn(newPoolState(), twinConfig(j.Config), nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			st := newPoolState()
			var replayed, resumed []string
			attempts, streams, legs, recorders := 0, 0, 0, 0
			for _, j := range sh.jobs {
				cfg := j.Config
				if cfg.Temporal == nil && isNone(cfg.Defense) {
					if tw, eligible := memo.replayable(&cfg); tw != nil || eligible {
						t.Errorf("%s nRH=%v: a defense-free static cell is replayable", cfg.Defense, cfg.NRH)
					}
					continue
				}
				res, c := replayOrFullResult(t, st, memo, cfg)
				if c.TwinReplays == 1 && c.Ticks != 0 {
					t.Errorf("a replayed cell ticked %d cycles", c.Ticks)
				}
				if cfg.Temporal != nil {
					legs++
					if c.TwinReplays+c.TwinMissed != 1 || c.TwinDiverged != 0 {
						t.Errorf("%s nRH=%v age=%d: twin_replays=%d twin_missed=%d twin_diverged=%d, want a replay or a miss",
							cfg.Defense, cfg.NRH, cfg.Temporal.AgeEpochs, c.TwinReplays, c.TwinMissed, c.TwinDiverged)
					}
					streams += int(c.TwinReplays)
					if sh.violent && c.TwinReplays == 1 && res.Violations == 0 {
						t.Errorf("%s nRH=%v age=%d: a replayed leg counted no violations", cfg.Defense, cfg.NRH, cfg.Temporal.AgeEpochs)
					}
					continue
				}
				if !sh.twins {
					recorders++
					if c.TwinMissed != 1 {
						t.Errorf("%s nRH=%v: twin_missed=%d twin_replays=%d with no log held, want a miss", cfg.Defense, cfg.NRH, c.TwinMissed, c.TwinReplays)
					}
					continue
				}
				attempts++
				if c.TwinReplays+c.TwinDiverged != 1 || c.TwinMissed != 0 {
					t.Errorf("%s nRH=%v: twin_replays=%d twin_diverged=%d twin_missed=%d, want a replay or a divergence",
						cfg.Defense, cfg.NRH, c.TwinReplays, c.TwinDiverged, c.TwinMissed)
				}
				name := fmt.Sprintf("%s %v %v %v", cfg.Defense, cfg.NRH, cfg.Svard, cfg.Mix)
				if c.TwinReplays == 1 {
					replayed = append(replayed, name)
				}
				if c.TwinResumed == 1 {
					resumed = append(resumed, name)
					if c.TwinDiverged != 1 || c.ResumedCycles == 0 {
						t.Errorf("%s: twin_resumed=1 with twin_diverged=%d resumed_cycles=%d", name, c.TwinDiverged, c.ResumedCycles)
					}
				}
			}
			t.Logf("%d of %d eligible static cells replayed to the end, %d resumed from a checkpoint; %d static legs recorded; %d of %d temporal legs replayed another leg's stream",
				len(replayed), attempts, len(resumed), recorders, streams, legs)
			if sh.want != nil && !slices.Equal(replayed, sh.want) {
				t.Errorf("replayed cells:\n got %q\nwant %q", replayed, sh.want)
			}
			if sh.resumed != nil && !slices.Equal(resumed, sh.resumed) {
				t.Errorf("resumed cells:\n got %q\nwant %q", resumed, sh.resumed)
			}
			if streams != sh.streams {
				t.Errorf("%d temporal legs replayed another leg's stream, want %d", streams, sh.streams)
			}
		})
	}
}

// TestTwinMemoConcurrent runs the golden Fig. 12 sweep twice, then the
// golden benchmark erosion sweep twice, over one memo with four workers:
// each first pass records its twins or streams while other cells look
// them up, each second pass replays. Every pass must fold to its fixture.
func TestTwinMemoConcurrent(t *testing.T) {
	var erosion []ErosionGolden
	readGolden(t, filepath.Join("testdata", "erosion_golden.json"), &erosion)
	g := goldenErosionSweeps()[0]
	if erosion[0].Name != g.Name {
		t.Fatalf("fixture's first erosion sweep is %q, want %q", erosion[0].Name, g.Name)
	}
	memo := &twinMemo{}
	for pass := 0; pass < 4; pass++ {
		var replays atomic.Uint64
		runner := func(cfg Config) (Result, error) {
			var rec obs.Recorder
			res, err := testEnv(memo).runOn(newPoolState(), cfg, &rec)
			replays.Add(rec.Counters.TwinReplays)
			return res, err
		}
		if pass < 2 {
			opt := goldenFig12Options()
			opt.Workers, opt.Runner = 4, runner
			cells, err := RunFig12Ctx(context.Background(), opt)
			sameAsGolden(t, "fig12_golden.json", cells, err)
		} else {
			cells, err := RunErosionCtx(context.Background(), ErosionOptions{
				Base: g.Base, Process: g.Process, Intervals: g.Intervals,
				Mixes: g.Mixes, NRHs: g.NRHs, Defenses: g.Defenses,
				Workers: 4, Runner: runner,
			})
			if err != nil {
				t.Fatal(err)
			}
			compareCells(t, cells, erosion[0].Cells)
		}
		if pass%2 == 1 && replays.Load() == 0 {
			t.Errorf("pass %d replayed no cell", pass)
		}
	}
}

// TestTwinKeyCoversConfig: a held log is the twin of a static cell
// exactly when the log is defense-free and every Config field but
// Defense, Svard and NRH agrees; it is a stream of a cell's family
// exactly when every field but Temporal agrees; and the recorder rule
// (a log never serves the leg that recorded it) reads Temporal alone,
// every field of the process included. A field added to Config or
// temporal.Spec and forgotten in sameMachine, sameStream or sameLeg
// fails here.
func TestTwinKeyCoversConfig(t *testing.T) {
	// bump changes one scalar field.
	bump := func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		default:
			t.Fatalf("%s: kind %v not covered by this test", name, v.Kind())
		}
	}
	base := tinyBase()
	base.Mix = []string{"mcf06", "ycsb-a"}
	leg := base
	leg.Temporal = diffTemporal()
	ignored := map[string]bool{"Defense": true, "Svard": true, "NRH": true}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		for _, from := range []Config{base, leg} {
			cfg := from
			cfg.Mix = slices.Clone(from.Mix)
			v := reflect.ValueOf(&cfg).Elem().Field(i)
			switch f.Name {
			case "Mix":
				cfg.Mix[1] = "tpcc"
			case "Temporal":
				if from.Temporal == nil {
					cfg.Temporal = diffTemporal()
				} else {
					cfg.Temporal = nil
				}
			default:
				bump("Config."+f.Name, v)
			}
			if from.Temporal == nil {
				if got := sameTwin(&from, &cfg); got != ignored[f.Name] {
					t.Errorf("Config.%s changed: sameTwin = %v, want %v", f.Name, got, ignored[f.Name])
				}
			}
			if got, want := sameStream(&from, &cfg), f.Name == "Temporal"; got != want {
				t.Errorf("Config.%s changed (temporal=%v): sameStream = %v, want %v", f.Name, from.Temporal != nil, got, want)
			}
			if got, want := sameLeg(&from, &cfg), f.Name != "Temporal"; got != want {
				t.Errorf("Config.%s changed (temporal=%v): sameLeg = %v, want %v", f.Name, from.Temporal != nil, got, want)
			}
		}
	}
	spec := reflect.TypeOf(*leg.Temporal)
	for i := 0; i < spec.NumField(); i++ {
		name := spec.Field(i).Name
		cfg := leg
		p := *leg.Temporal
		cfg.Temporal = &p
		if !sameLeg(&leg, &cfg) {
			t.Errorf("an equal process under another pointer is another leg")
		}
		bump("temporal.Spec."+name, reflect.ValueOf(&p).Elem().Field(i))
		if !sameStream(&leg, &cfg) || sameLeg(&leg, &cfg) {
			t.Errorf("Temporal.%s changed: sameStream = %v, sameLeg = %v, want true, false", name, sameStream(&leg, &cfg), sameLeg(&leg, &cfg))
		}
	}
	defended := base
	defended.Defense = "para"
	if sameTwin(&defended, &base) {
		t.Error("a defense cell's log is a twin")
	}
}

// TestTwinMemoBounded: the memo never holds more log than its budget,
// evicts the least recently used twin first, records a twin it holds
// only once, and drops a twin whose log outgrows its share of the budget
// while it is recorded. A twin's checkpoints are charged with its log,
// byte for byte, and stop at their own share.
func TestTwinMemoBounded(t *testing.T) {
	memo := &twinMemo{budget: 8 << 10}
	const n = twinShare + 1
	per := memo.budget/twinShare - twinOverhead // twinShare twins fit, one more evicts
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = tinyBase()
		cfgs[i].Mix = []string{"mcf06", "ycsb-a"}
		cfgs[i].Seed = uint64(i + 1)
		m := trackedMachine()
		memo.record(&cfgs[i], m)
		tw := m.tracker.log
		if tw == nil {
			t.Fatalf("twin %d not recorded", i)
		}
		again := trackedMachine()
		if memo.record(&cfgs[i], again); again.tracker.log != nil {
			t.Fatalf("twin %d recorded twice while in flight", i)
		}
		for range per / 8 {
			tw.add(evACT, 1, 2, 3)
		}
		memo.finish(m.tracker, Result{IPC: []float64{1, 1}})
		if i == 1 {
			cell := cfgs[0]
			cell.Defense = "rrs"
			if tw, _ := memo.replayable(&cell); tw == nil { // twin 0 becomes most recently used
				t.Fatal("twin 0 not held")
			}
		}
		if memo.bytes > memo.budget {
			t.Fatalf("memo holds %d bytes, budget %d", memo.bytes, memo.budget)
		}
	}
	held := map[uint64]bool{}
	for _, tw := range memo.held {
		held[tw.cfg.Seed] = true
	}
	want := map[uint64]bool{}
	for i := range n {
		if i != 1 {
			want[uint64(i+1)] = true
		}
	}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("held twins by seed %v, want %v (the least recently used, seed 2, evicted)", held, want)
	}
	again := trackedMachine()
	if memo.record(&cfgs[0], again); again.tracker.log != nil {
		t.Error("a held twin was recorded again")
	}

	long := tinyBase()
	long.Mix = []string{"lbm06", "tpcc"}
	m := trackedMachine()
	memo.record(&long, m)
	tw := m.tracker.log
	for range per/8 + 1 {
		tw.add(evACT, 1, 2, 3)
	}
	if !tw.lost || tw.log != nil {
		t.Errorf("a log past its share is kept (%d entries)", tw.n)
	}
	before := memo.bytes
	memo.finish(m.tracker, Result{IPC: []float64{1, 1}})
	if memo.bytes != before || slices.Contains(memo.held, tw) || m.tracker.log != nil {
		t.Error("a twin past its share is held")
	}
	if got := testing.AllocsPerRun(100, func() {
		cell := cfgs[3]
		cell.Defense = "aqua"
		memo.replayable(&cell)
	}); got != 0 {
		t.Errorf("memo lookup allocates %v times", got)
	}

	// A real twin at a spacing its checkpoint share cannot hold: it keeps
	// checkpoints in order, one per spacing at most, up to the share and
	// takes none after, and the memo charges exactly its entries,
	// checkpoints and overhead.
	const every = 1 << 12
	small := &twinMemo{budget: 1 << 20, every: every}
	twin := twinConfig(tinyBase())
	twin.Mix = []string{"lbm06", "tpcc"}
	if _, err := testEnv(small).runOn(newPoolState(), twin, nil); err != nil {
		t.Fatal(err)
	}
	if len(small.held) != 1 {
		t.Fatalf("the memo holds %d twins after recording one", len(small.held))
	}
	st := small.held[0]
	sum := 0
	for i, ck := range st.ckpts {
		sum += ck.bytes
		if ck.at < every || i > 0 && (ck.at/every <= st.ckpts[i-1].at/every || ck.n < st.ckpts[i-1].n) {
			t.Errorf("checkpoint %d at cycle %d (entry %d) is off the spacing %d or out of order", i, ck.at, ck.n, every)
		}
		if c := ck.cores[0].Bytes(); c <= 0 || c >= ck.bytes {
			t.Errorf("checkpoint %d: a core's %d bytes against the checkpoint's %d", i, c, ck.bytes)
		}
	}
	if len(st.ckpts) == 0 || sum != st.ckBytes || st.ckBytes > st.ckMax || st.ckMax != small.budget/twinShare {
		t.Errorf("%d checkpoints, %d bytes counted, %d charged, share %d", len(st.ckpts), sum, st.ckBytes, st.ckMax)
	} else if last := st.ckpts[len(st.ckpts)-1].at; last+2*every > st.res.Cycles {
		t.Errorf("the share held every checkpoint up to cycle %d of %d: the test no longer reaches it", last, st.res.Cycles)
	}
	if want := st.n*8 + sum + twinOverhead; small.bytes != want {
		t.Errorf("memo charged %d bytes for a twin of %d entries and %d checkpoint bytes, want %d", small.bytes, st.n, sum, want)
	}
}

// TestTwinAbandonedOnPanic: a run that panics while recording gives
// its slot back, as runOn's deferred abandon does, so the family records
// on its next run instead of waiting forever on a log never finished.
func TestTwinAbandonedOnPanic(t *testing.T) {
	memo := &twinMemo{}
	cfg := twinConfig(tinyBase())
	m := trackedMachine()
	func() {
		defer func() { recover() }()
		memo.record(&cfg, m)
		defer memo.abandon(m.tracker)
		if m.tracker.log == nil {
			t.Fatal("twin not recorded")
		}
		panic("run exploded")
	}()
	if len(memo.held) != 0 || m.tracker.log != nil {
		t.Fatalf("the panicked run's slot is still held: %d held", len(memo.held))
	}
	again := trackedMachine()
	if memo.record(&cfg, again); again.tracker.log == nil {
		t.Error("the family cannot record after a panicked run")
	}
}

// trackedMachine is a machine with just a tracker: enough for the memo
// to attach a log to.
func trackedMachine() *machine { return &machine{tracker: &secTracker{}} }

// FuzzTwinReplay: for any small configuration fuzzConfig can name, a cell
// replayed from its twin's log is bit-identical to its full simulation,
// and a temporal or defense-free cell never replays.
func FuzzTwinReplay(f *testing.F) {
	for d := uint64(0); d <= uint64(len(DefenseNames)); d++ {
		f.Add(fuzzSeed(fuzzChoices{defense: d, nrh: d % 3, svard: d % 2, hbm2: d & 1, cores: 1, mix: [4]uint64{2, 3}}))
	}
	f.Add(fuzzSeed(fuzzChoices{defense: 1, cores: 1, mix: [4]uint64{2, 3}, temporal: 1}))
	f.Add(fuzzSeed(fuzzChoices{defense: 5, cores: 1, mix: [4]uint64{0, 4}, truncate: 3}))
	f.Add(fuzzSeed(fuzzChoices{defense: 5, nrh: 2, cores: 1, mix: [4]uint64{6, 2}})) // rrs under its attack
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := fuzzConfig(seed)
		memo := &twinMemo{budget: 1 << 30} // holds any twin fuzzConfig names
		if _, err := testEnv(memo).runOn(newPoolState(), twinConfig(cfg), nil); err != nil {
			t.Fatal(err)
		}
		c := replayOrFull(t, newPoolState(), memo, cfg)
		eligible := cfg.Temporal == nil && !isNone(cfg.Defense)
		if got := c.TwinReplays + c.TwinDiverged; got != map[bool]uint64{true: 1, false: 0}[eligible] {
			t.Errorf("eligible=%v but twin_replays=%d twin_diverged=%d", eligible, c.TwinReplays, c.TwinDiverged)
		}
	})
}

// TestTwinEventPacking: every field of a log entry round-trips at the
// edges of its width, and a value past them is refused, never truncated.
// HBM2's largest system-wide bank and rank (the tracker's indices) fit.
func TestTwinEventPacking(t *testing.T) {
	type fields struct {
		kind, bank, row int
		at              uint64
	}
	hbm2, err := dram.BackendByName("hbm2")
	if err != nil {
		t.Fatal(err)
	}
	g := hbm2.Geom
	lastBank, lastRank := g.TotalBanks()-1, g.TotalChannels()*g.Ranks-1
	for _, f := range []fields{
		{evACT, 0, 0, 0},
		{evPRE, 1<<evBankBits - 1, 1<<evRowBits - 1, 1<<evAtBits - 1},
		{evREF, 3, 131071, 80_000_000},
		{evSWAP, 63, 131071, 131070},
		{evACT, lastBank, 131071, 80_000_000},
		{evREF, lastRank, 131071, 8},
	} {
		e, ok := packEvent(f.kind, f.bank, f.row, f.at)
		if got := (fields{e.kind(), e.bank(), e.row(), e.at()}); !ok || got != f {
			t.Errorf("packEvent(%+v) = %+v, %v", f, got, ok)
		}
	}
	for _, f := range []fields{
		{evACT, 1 << evBankBits, 0, 0},
		{evACT, 0, 1 << evRowBits, 0},
		{evACT, 0, 0, 1 << evAtBits},
		{evACT, -1, 0, 0},
		{evACT, 0, -1, 0},
	} {
		if _, ok := packEvent(f.kind, f.bank, f.row, f.at); ok {
			t.Errorf("packEvent(%+v) accepted a field past its width", f)
		}
	}
}

// FuzzTwinResume: for any small static configuration fuzzConfig can name
// — defense, nRH, Svärd, backend, attack mixes — and any checkpoint
// spacing, a cell that diverges from its twin resumes from the twin's
// last checkpoint before the divergence exactly when there is one, and
// is then bit for bit its forced full simulation, covering the same
// cycles.
func FuzzTwinResume(f *testing.F) {
	for d := uint64(1); d <= uint64(len(DefenseNames)); d++ {
		f.Add(fuzzSeed(fuzzChoices{defense: d, nrh: 2, svard: d % 2, hbm2: d & 1, cores: 1, mix: [4]uint64{2, 3}}), uint8(d))
	}
	f.Add(fuzzSeed(fuzzChoices{defense: 3, nrh: 1, cores: 1, mix: [4]uint64{5, 2}}), uint8(2))          // hydra under its attack
	f.Add(fuzzSeed(fuzzChoices{defense: 5, nrh: 1, hbm2: 1, cores: 1, mix: [4]uint64{6, 0}}), uint8(1)) // rrs under its attack, HBM2
	f.Add(fuzzSeed(fuzzChoices{defense: 2, nrh: 2, svard: 1, cores: 3, mix: [4]uint64{0, 2, 3, 4}}), uint8(3))
	f.Add(fuzzSeed(fuzzChoices{defense: 1, nrh: 2, cores: 1, mix: [4]uint64{2, 3}, truncate: 4}), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, spacing uint8) {
		cfg := fuzzConfig(seed)
		cfg.Temporal = nil
		if isNone(cfg.Defense) {
			return
		}
		memo := &twinMemo{budget: 1 << 30, every: 256 << (spacing % 10)}
		if _, err := testEnv(memo).runOn(newPoolState(), twinConfig(cfg), nil); err != nil {
			t.Fatal(err)
		}
		c := replayOrFull(t, newPoolState(), memo, cfg)

		l, err := newLayout(cfg, defaultEnv.modules)
		if err != nil {
			t.Fatal(err)
		}
		st := newPoolState()
		if err := l.arm(st); err != nil {
			t.Fatal(err)
		}
		tw, _ := memo.replayable(&cfg)
		d, ok := l.replay(st, tw)
		var from *checkpoint
		if !ok {
			from = tw.resumePoint(d)
		}
		want := map[bool]uint64{true: 1}
		if c.TwinReplays != want[ok] || c.TwinDiverged != want[!ok] || c.TwinResumed != want[from != nil] {
			t.Errorf("diverged at entry %d (replayed %v, a checkpoint before it %v): twin_replays=%d twin_diverged=%d twin_resumed=%d",
				d, ok, from != nil, c.TwinReplays, c.TwinDiverged, c.TwinResumed)
		}
		if from != nil && c.ResumedCycles != from.at {
			t.Errorf("resumed_cycles=%d, want the checkpoint's cycle %d", c.ResumedCycles, from.at)
		}
	})
}

// resumedCell is a benchmark-shape cell whose defense first acts near
// cycle 87 000 of its twin's 334 000: it resumes from the twin's
// checkpoint at cycle 65 536.
func resumedCell() Config {
	cfg := tinyBase()
	cfg.Defense, cfg.NRH = "hydra", 1024
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	return cfg
}

// TestTwinResumeAllocs: on a warm arena, a cell resumed from its twin's
// checkpoint allocates exactly what its forced full simulation does — the
// abandoned replay, the re-armed walk to the checkpoint and the restore
// allocate nothing, and neither do the last two alone.
func TestTwinResumeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := resumedCell()
	withMemo, full := testEnv(&twinMemo{}), testEnv(nil)
	if _, err := withMemo.runOn(newPoolState(), twinConfig(cfg), nil); err != nil {
		t.Fatal(err)
	}
	st := newPoolState()
	var rec obs.Recorder
	if _, err := withMemo.runOn(st, cfg, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Counters.TwinResumed != 1 || rec.Counters.ResumedCycles != 65536 {
		t.Fatalf("twin_resumed=%d resumed_cycles=%d, want a resume at cycle 65536", rec.Counters.TwinResumed, rec.Counters.ResumedCycles)
	}
	resumed := testing.AllocsPerRun(3, func() { withMemo.runOn(st, cfg, nil) })
	simulated := testing.AllocsPerRun(3, func() { full.runOn(st, cfg, nil) })
	if resumed != simulated {
		t.Errorf("a warm resumed cell allocates %v times, its full simulation %v", resumed, simulated)
	}

	// The resume's own steps, on the warm arena: the walk to the
	// checkpoint and the restore (which sets the same state again).
	l, err := newLayout(cfg, defaultEnv.modules)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := withMemo.memo.replayable(&cfg)
	ck := tw.resumePoint(tw.n)
	if err := l.arm(st); err != nil {
		t.Fatal(err)
	}
	m, err := l.assemble(st)
	if err != nil {
		t.Fatal(err)
	}
	m.restore(ck)
	if n := testing.AllocsPerRun(10, func() { l.walk(st, tw, ck.n); m.restore(ck) }); n != 0 {
		t.Errorf("the walk to a checkpoint and its restore allocate %v times", n)
	}
}
