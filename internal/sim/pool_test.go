package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"svard/internal/obs"
	"svard/internal/rng"
)

// TestPooledVsFresh is the pooling counterpart of the engine
// differential: across every defense, the adversarial and streaming
// mixes, and Svärd on/off, an arena pool that has already executed other
// configurations must produce a Result bit-identical to a fresh
// construction. The pool is deliberately shared across the whole
// matrix, so every case runs on state dirtied by the previous ones.
func TestPooledVsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("pooled differential matrix is seconds-scale")
	}
	pool := testEnv(defaultEnv.memo)
	defenses := append([]string{"none"}, DefenseNames...)
	for _, defense := range defenses {
		for mixName, mix := range diffMixes() {
			for _, svard := range []bool{false, true} {
				if defense == "none" && svard {
					continue
				}
				name := fmt.Sprintf("%s/%s/svard=%v", defense, mixName, svard)
				t.Run(name, func(t *testing.T) {
					cfg := diffBase()
					cfg.Defense = defense
					cfg.Mix = mix
					cfg.Svard = svard
					fresh, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					pooled, err := pool.run(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fresh, pooled) {
						t.Errorf("pooled run diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
					}
				})
			}
		}
	}
}

// TestPoolDirtyReuse proves a dirty arena resets completely: a
// truncated run (whose controller queues, in-flight victim refreshes,
// core windows, and defense counters all stop mid-flight) is followed
// on the same arena by a different full-length configuration, which must
// match a fresh run bit for bit. Every run simulates (an env with no twin
// memo): a replay builds no machine on its arena.
func TestPoolDirtyReuse(t *testing.T) {
	arena := newPoolState()
	run := func(st *poolState, cfg Config) (Result, error) { return testEnv(nil).runOn(st, cfg, nil) }

	dirty := diffBase()
	dirty.Defense = "hydra"
	dirty.Mix = []string{"attack:hydra", "mcf06"}
	dirty.MaxCycles = 30_000 // cut off mid-flight
	res, err := run(arena, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Fatal("dirtying run finished; shrink MaxCycles")
	}

	clean := diffBase()
	clean.Defense = "rrs" // different defense type reuses the same arena
	clean.Mix = []string{"lbm06", "ycsb-a"}
	fresh, err := run(newPoolState(), clean)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := run(arena, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("dirty pool diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}

	// And the same config as the truncated one, full length.
	dirty.MaxCycles = diffBase().MaxCycles
	fresh, err = run(newPoolState(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err = run(arena, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("dirty pool (same config, full length) diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}

	// An abandoned twin replay dirties the armed half (defense, tracker)
	// of its arena; the cell then simulates, and a different cell follows
	// on the same arena. Both must match fresh runs.
	st := newPoolState()
	memo := &twinMemo{}
	diverging := diffBase()
	diverging.Defense = "rrs"
	diverging.Mix = []string{"mcf06", "ycsb-a"}
	if _, err := testEnv(memo).runOn(st, twinConfig(diverging), nil); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{diverging, clean} {
		var rec obs.Recorder
		pooled, err := testEnv(memo).runOn(st, cfg, &rec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := testEnv(nil).runOn(newPoolState(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("%s %v after a diverged replay:\nfresh:  %+v\npooled: %+v", cfg.Defense, cfg.Mix, fresh, pooled)
		}
		if cfg.Defense == diverging.Defense && slices.Equal(cfg.Mix, diverging.Mix) && rec.Counters.TwinDiverged != 1 {
			t.Errorf("the rrs cell did not diverge from its twin: %+v", rec.Counters.EngineCounters)
		}
	}

	// A stream replay arms only the tracker: the arena's defenses stay
	// as the recorder's run left them, and its tracker ends temporal. The
	// static leg replays the temporal recorder's stream too, and a cell of
	// another family then simulates on the same arena; all must match
	// fresh runs.
	st, memo = newPoolState(), &twinMemo{}
	leg := diffBase()
	leg.Defense = "rrs"
	leg.Mix = []string{"attack:rrs", "mcf06"}
	leg.Temporal = diffTemporal()
	young := *leg.Temporal
	young.AgeEpochs = 0
	recorder := leg
	recorder.Temporal = &young
	if _, err := testEnv(memo).runOn(st, recorder, nil); err != nil {
		t.Fatal(err)
	}
	static := leg
	static.Temporal = nil
	other := static
	other.NRH *= 2
	for _, cfg := range []Config{leg, static, other} {
		var rec obs.Recorder
		pooled, err := testEnv(memo).runOn(st, cfg, &rec)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := testEnv(nil).runOn(newPoolState(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("temporal=%v nRH=%v after a stream replay:\nfresh:  %+v\npooled: %+v", cfg.Temporal != nil, cfg.NRH, fresh, pooled)
		}
		if replayed := rec.Counters.TwinReplays == 1; replayed != (cfg.NRH == leg.NRH) {
			t.Errorf("temporal=%v nRH=%v: twin_replays=%d", cfg.Temporal != nil, cfg.NRH, rec.Counters.TwinReplays)
		}
	}
}

// TestPoolBackendAlternationHBM2 is the deterministic cross-backend
// reuse differential: DDR4 and HBM2 cells alternate through one pool —
// the arena's controller slice grows from one controller to four and
// shrinks back, with a truncated HBM2 run left mid-flight in between —
// and every cell must match fresh construction bit for bit.
func TestPoolBackendAlternationHBM2(t *testing.T) {
	pool := testEnv(defaultEnv.memo)
	base := diffBase()
	base.Mix = []string{"mcf06", "ycsb-a"}
	base.Defense = "para"

	steps := []struct {
		name      string
		backend   string
		defense   string
		maxCycles uint64
	}{
		{"ddr4", "", "para", 0},
		{"hbm2", "hbm2", "para", 0},
		{"hbm2-truncated", "hbm2", "hydra", 25_000},
		{"ddr4-after-hbm2", "", "hydra", 0},
		{"hbm2-after-shrink", "hbm2", "rrs", 0},
	}
	for _, st := range steps {
		cfg := base
		cfg.Backend = st.backend
		cfg.Defense = st.defense
		if st.maxCycles > 0 {
			cfg.MaxCycles = st.maxCycles
		}
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		pooled, err := pool.run(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Fatalf("%s: pooled run diverged:\nfresh:  %+v\npooled: %+v", st.name, fresh, pooled)
		}
	}
}

// TestPoolGeometryInterleave funnels randomized configurations of
// different geometries (memory backend, rows per bank, cores,
// workloads, defenses, truncation) through ONE pool arena in sequence
// and checks each against fresh construction. This is the randomized
// reset-coverage test: growing and shrinking geometry — including
// alternating the single-channel DDR4 preset with the four-pseudo-
// channel HBM2 preset, which resizes the controller slice, every
// per-channel defense, and the tracker's accrual table — must never
// leak state between cells.
func TestPoolGeometryInterleave(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized geometry interleave is seconds-scale")
	}
	pool := testEnv(defaultEnv.memo)
	r := rng.New(0xD00DF00D)
	rows := []int{1024, 2048, 4096}
	cores := []int{1, 2, 3}
	backends := []string{"", "hbm2", "ddr4-3200"}
	workloads := []string{"mcf06", "ycsb-a", "lbm06", "tpcc", "attack:hydra", "attack:rrs"}
	defenses := append([]string{"none"}, DefenseNames...)
	for i := 0; i < 24; i++ {
		cfg := DefaultConfig()
		cfg.Backend = backends[r.Intn(len(backends))]
		cfg.RowsPerBank = rows[r.Intn(len(rows))]
		cfg.CellsPerRow = 2048
		cfg.Cores = cores[r.Intn(len(cores))]
		cfg.InstrPerCore = 4_000 + uint64(r.Intn(4))*2_000
		cfg.WarmupPerCore = 1_000
		cfg.Defense = defenses[r.Intn(len(defenses))]
		cfg.Svard = r.Bool(0.5) && cfg.Defense != "none"
		cfg.NRH = []float64{64, 256, 1024}[r.Intn(3)]
		cfg.Mix = make([]string, cfg.Cores)
		for c := range cfg.Mix {
			cfg.Mix[c] = workloads[r.Intn(len(workloads))]
		}
		if r.Bool(0.25) {
			cfg.MaxCycles = 20_000 // leave the arena mid-flight
		}
		name := fmt.Sprintf("%02d-%s-%q-rows%d-cores%d", i, cfg.Defense, cfg.Backend, cfg.RowsPerBank, cfg.Cores)
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pooled, err := pool.run(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Fatalf("%s: pooled run diverged after %d prior cells:\nfresh:  %+v\npooled: %+v",
				name, i, fresh, pooled)
		}
	}
}

// TestPooledRunMatchesRun pins the exported entry point the sweeps use.
func TestPooledRunMatchesRun(t *testing.T) {
	cfg := diffBase()
	cfg.Defense = "para"
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := PooledRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("PooledRun diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestArenaBuildAllocs pins what a warm arena allocates to build and run
// a small cell. Nothing is allocated per channel or per build of the
// machine — the machine, every channel's tracker and threshold view,
// every core's port and the pooled defenses' keys are the arena's — so
// the four-controller HBM2 machine allocates what the one-controller
// DDR4 machine does.
func TestArenaBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const pinned = 9
	for _, backend := range []string{"ddr4-3200", "hbm2"} {
		cfg := diffBase()
		cfg.Backend = backend
		cfg.Defense = "para"
		cfg.Mix = []string{"mcf06", "ycsb-a"}
		cfg.InstrPerCore, cfg.WarmupPerCore = 2_000, 500
		st := newPoolState()
		if _, err := testEnv(nil).runOn(st, cfg, nil); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() { testEnv(nil).runOn(st, cfg, nil) }); n > pinned {
			t.Errorf("%s: a warm pooled build and run allocates %v objects, want at most %d", backend, n, pinned)
		}
	}
}
