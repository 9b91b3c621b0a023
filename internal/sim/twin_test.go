package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"svard/internal/obs"
)

// twinConfig is cfg's defense-free twin: the sweeps' baseline of its
// (module, mix, backend).
func twinConfig(cfg Config) Config {
	cfg.Defense, cfg.Svard, cfg.NoSkip = "none", false, false
	return cfg
}

// replayOrFull runs cfg through memo — the replay path when memo holds
// its twin — and through a forced full simulation, requires the two
// Results to be bit-identical, and returns the replay path's counters.
func replayOrFull(t *testing.T, st *poolState, memo *twinMemo, cfg Config) obs.Counters {
	t.Helper()
	var rec obs.Recorder
	got, err := runOn(st, cfg, &rec, memo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runOn(newPoolState(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s nRH=%v svard=%v mix=%v: replay path diverged from the full run:\nreplay: %+v\nfull:   %+v",
			cfg.Defense, cfg.NRH, cfg.Svard, cfg.Mix, got, want)
	}
	return rec.Counters
}

// benchFig12Options is the benchmark's fig12 shape: the golden fixture's
// sweep with all five defenses (42 cells).
func benchFig12Options() Fig12Options {
	opt := goldenFig12Options()
	opt.Defenses = DefenseNames
	return opt
}

// TestTwinReplayMatchesFullRun runs each golden shape's twins into a
// private memo, then every cell through the replay path and through a
// forced full run: the Results must be bit-identical. Cells that may not
// replay (temporal, defense-free) must not touch the memo. On the
// benchmark's Fig. 12 shape it also pins which cells replay to the end,
// so a change that silently disables the fast path fails here.
func TestTwinReplayMatchesFullRun(t *testing.T) {
	must := func(jobs []Job, err error) []Job {
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	var erosion []Job
	for _, g := range goldenErosionSweeps() {
		erosion = append(erosion, must(ErosionJobs(ErosionOptions{
			Base: g.Base, Process: g.Process, Intervals: g.Intervals,
			Mixes: g.Mixes, NRHs: g.NRHs, Defenses: g.Defenses,
		}))...)
	}
	// Exactness does not depend on the budget. The two Fig. 12 shapes
	// run under the real one (the benchmark's census is pinned); Fig. 13
	// and erosion, whose attack twins log 0.6–2.1 MB, past a twin's
	// share, under one that holds them.
	const roomy = 1 << 30
	shapes := []struct {
		name   string
		jobs   []Job
		budget int      // 0: twinBudget
		want   []string // cells replayed to the end; nil: not pinned
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
		}},
		{"fig12_hbm2", Fig12Jobs(goldenFig12HBM2Options()), 0, nil},
		{"fig13", must(Fig13Jobs(goldenFig13Options())), roomy, nil},
		{"erosion", erosion, roomy, nil},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			memo := &twinMemo{budget: sh.budget}
			for _, j := range sh.jobs {
				probe := twinConfig(j.Config)
				probe.Defense = "para"
				if j.Config.Temporal == nil && memo.replayable(&probe) == nil {
					if _, err := runOn(newPoolState(), twinConfig(j.Config), nil, memo); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := newPoolState()
			var replayed []string
			attempts := 0
			for _, j := range sh.jobs {
				cfg := j.Config
				if cfg.Temporal != nil || isNone(cfg.Defense) {
					if memo.replayable(&cfg) != nil {
						t.Errorf("%s nRH=%v temporal=%v: an ineligible cell is replayable", cfg.Defense, cfg.NRH, cfg.Temporal != nil)
					}
					continue
				}
				c := replayOrFull(t, st, memo, cfg)
				attempts++
				if c.TwinReplays+c.TwinDiverged != 1 {
					t.Errorf("%s nRH=%v: twin_replays=%d twin_diverged=%d, want one of them", cfg.Defense, cfg.NRH, c.TwinReplays, c.TwinDiverged)
				}
				if c.TwinReplays == 1 {
					replayed = append(replayed, fmt.Sprintf("%s %v %v %v", cfg.Defense, cfg.NRH, cfg.Svard, cfg.Mix))
					if c.Ticks != 0 {
						t.Errorf("a replayed cell ticked %d cycles", c.Ticks)
					}
				}
			}
			t.Logf("%d of %d eligible cells replayed to the end", len(replayed), attempts)
			if sh.want != nil && !slices.Equal(replayed, sh.want) {
				t.Errorf("replayed cells:\n got %q\nwant %q", replayed, sh.want)
			}
		})
	}
}

// TestTwinMemoConcurrent runs the golden Fig. 12 sweep twice over one
// memo with four workers: the first pass records its twins while other
// cells look them up, the second replays. Both must fold to the fixture.
func TestTwinMemoConcurrent(t *testing.T) {
	memo := &twinMemo{}
	for pass := 0; pass < 2; pass++ {
		var replays atomic.Uint64
		opt := goldenFig12Options()
		opt.Workers = 4
		opt.Runner = func(cfg Config) (Result, error) {
			var rec obs.Recorder
			res, err := runOn(newPoolState(), cfg, &rec, memo)
			replays.Add(rec.Counters.TwinReplays)
			return res, err
		}
		cells, err := RunFig12Ctx(context.Background(), opt)
		sameAsGolden(t, "fig12_golden.json", cells, err)
		if pass == 1 && replays.Load() == 0 {
			t.Error("the second pass replayed no cell")
		}
	}
}

// TestTwinKeyCoversConfig: a twin matches a cell exactly when every
// Config field but Defense, Svard and NRH agrees. A field added to Config
// and forgotten in sameTwin fails here.
func TestTwinKeyCoversConfig(t *testing.T) {
	base := tinyBase()
	base.Mix = []string{"mcf06", "ycsb-a"}
	ignored := map[string]bool{"Defense": true, "Svard": true, "NRH": true}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := base
		cfg.Mix = slices.Clone(base.Mix)
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Name {
		case "Mix":
			cfg.Mix[1] = "tpcc"
		case "Core":
			cfg.Core.MSHRs++
		case "Temporal":
			cfg.Temporal = diffTemporal()
		default:
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
				t.Fatalf("Config.%s: kind %v not covered by this test", f.Name, v.Kind())
			}
		}
		if got := sameTwin(&base, &cfg); got != ignored[f.Name] {
			t.Errorf("Config.%s changed: sameTwin = %v, want %v", f.Name, got, ignored[f.Name])
		}
	}
}

// TestTwinMemoBounded: the memo never holds more log than its budget,
// evicts the least recently used twin first, records a twin it holds
// only once, and drops a twin whose log outgrows its share of the budget
// while it is recorded.
func TestTwinMemoBounded(t *testing.T) {
	memo := &twinMemo{budget: 8 << 10}
	const n = twinShare + 1
	per := memo.budget/twinShare - twinOverhead // twinShare twins fit, one more evicts
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = tinyBase()
		cfgs[i].Mix = []string{"mcf06", "ycsb-a"}
		cfgs[i].Seed = uint64(i + 1)
		tape := memo.record(&cfgs[i], &machine{})
		if tape == nil {
			t.Fatalf("twin %d not recorded", i)
		}
		if memo.record(&cfgs[i], &machine{}) != nil {
			t.Fatalf("twin %d recorded twice while in flight", i)
		}
		for range per / 8 {
			tape.add(evACT, 0, 1, 2, 3)
		}
		memo.finish(tape, Result{IPC: []float64{1, 1}})
		if i == 1 {
			cell := cfgs[0]
			cell.Defense = "rrs"
			if memo.replayable(&cell) == nil { // twin 0 becomes most recently used
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
	if memo.record(&cfgs[0], &machine{}) != nil {
		t.Error("a held twin was recorded again")
	}

	long := tinyBase()
	long.Mix = []string{"lbm06", "tpcc"}
	tape := memo.record(&long, &machine{})
	for range per/8 + 1 {
		tape.add(evACT, 0, 1, 2, 3)
	}
	if tape.ok || tape.log != nil {
		t.Errorf("a log past its share is kept (%d entries)", len(tape.log))
	}
	before := memo.bytes
	memo.finish(tape, Result{IPC: []float64{1, 1}})
	if memo.bytes != before || slices.Contains(memo.held, tape.tw) {
		t.Error("a twin past its share is held")
	}
	if got := testing.AllocsPerRun(100, func() {
		cell := cfgs[3]
		cell.Defense = "aqua"
		memo.replayable(&cell)
	}); got != 0 {
		t.Errorf("memo lookup allocates %v times", got)
	}
}

// FuzzTwinReplay: for any small configuration fuzzConfig can name, a cell
// replayed from its twin's log is bit-identical to its full simulation,
// and a temporal, NoSkip or defense-free cell never replays.
func FuzzTwinReplay(f *testing.F) {
	for d := uint64(0); d <= uint64(len(DefenseNames)); d++ {
		f.Add(fuzzSeed(fuzzChoices{defense: d, nrh: d % 3, svard: d % 2, hbm2: d & 1, cores: 1, mix: [4]uint64{2, 3}}))
	}
	f.Add(fuzzSeed(fuzzChoices{defense: 1, cores: 1, mix: [4]uint64{2, 3}, temporal: 1}))
	f.Add(fuzzSeed(fuzzChoices{defense: 5, cores: 1, mix: [4]uint64{0, 4}, truncate: 3}))
	span := uint64(1)
	for _, r := range fuzzRadix {
		span *= r
	}
	f.Add(span + fuzzSeed(fuzzChoices{defense: 5, cores: 1, mix: [4]uint64{2, 3}})) // NoSkip
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := fuzzConfig(seed)
		cfg.NoSkip = seed/span%2 == 1
		memo := &twinMemo{budget: 1 << 30} // holds any twin fuzzConfig names
		if _, err := runOn(newPoolState(), twinConfig(cfg), nil, memo); err != nil {
			t.Fatal(err)
		}
		c := replayOrFull(t, newPoolState(), memo, cfg)
		eligible := cfg.Temporal == nil && !cfg.NoSkip && !isNone(cfg.Defense)
		if got := c.TwinReplays + c.TwinDiverged; got != map[bool]uint64{true: 1, false: 0}[eligible] {
			t.Errorf("eligible=%v but twin_replays=%d twin_diverged=%d", eligible, c.TwinReplays, c.TwinDiverged)
		}
	})
}

// TestTwinEventPacking: every field of a log entry round-trips at the
// edges of its width, and a value past them is refused, never truncated.
func TestTwinEventPacking(t *testing.T) {
	type fields struct {
		kind, ch, bank, row int
		at                  uint64
	}
	for _, f := range []fields{
		{evACT, 0, 0, 0, 0},
		{evPRE, 1<<evChanBits - 1, 1<<evBankBits - 1, 1<<evRowBits - 1, 1<<evAtBits - 1},
		{evREF, 3, 1, 131071, 80_000_000},
	} {
		e, ok := packEvent(f.kind, f.ch, f.bank, f.row, f.at)
		if got := (fields{e.kind(), e.ch(), e.bank(), e.row(), e.at()}); !ok || got != f {
			t.Errorf("packEvent(%+v) = %+v, %v", f, got, ok)
		}
	}
	for _, f := range []fields{
		{evACT, 1 << evChanBits, 0, 0, 0},
		{evACT, 0, 1 << evBankBits, 0, 0},
		{evACT, 0, 0, 1 << evRowBits, 0},
		{evACT, 0, 0, 0, 1 << evAtBits},
		{evACT, 0, -1, 0, 0},
		{evACT, 0, 0, -1, 0},
	} {
		if _, ok := packEvent(f.kind, f.ch, f.bank, f.row, f.at); ok {
			t.Errorf("packEvent(%+v) accepted a field past its width", f)
		}
	}
}
