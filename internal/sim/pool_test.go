package sim

import (
	"fmt"
	"reflect"
	"testing"

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
	pool := &arenaPool{}
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
// on the same pool by a different full-length configuration, which must
// match a fresh run bit for bit.
func TestPoolDirtyReuse(t *testing.T) {
	pool := &arenaPool{}

	dirty := diffBase()
	dirty.Defense = "hydra"
	dirty.Mix = []string{"attack:hydra", "mcf06"}
	dirty.MaxCycles = 30_000 // cut off mid-flight
	res, err := pool.run(dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Fatal("dirtying run finished; shrink MaxCycles")
	}

	clean := diffBase()
	clean.Defense = "rrs" // different defense type reuses the same arena
	clean.Mix = []string{"lbm06", "ycsb-a"}
	fresh, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := pool.run(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("dirty pool diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}

	// And the same config as the truncated one, full length.
	dirty.MaxCycles = diffBase().MaxCycles
	fresh, err = Run(dirty)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err = pool.run(dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("dirty pool (same config, full length) diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}
}

// TestPoolBackendAlternationHBM2 is the deterministic cross-backend
// reuse differential: DDR4 and HBM2 cells alternate through one pool —
// the arena's controller slice grows from one controller to four and
// shrinks back, with a truncated HBM2 run left mid-flight in between —
// and every cell must match fresh construction bit for bit.
func TestPoolBackendAlternationHBM2(t *testing.T) {
	pool := &arenaPool{}
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
	pool := &arenaPool{}
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
		name := fmt.Sprintf("%02d-%s-%s-rows%d-cores%d", i, cfg.Defense, backendLabel(cfg.Backend), cfg.RowsPerBank, cfg.Cores)
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
