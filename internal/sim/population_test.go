package sim

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"svard/internal/population"
)

func tinyPopulationOptions(size int) PopulationOptions {
	base := tinyBase()
	base.Cores = 1
	base.InstrPerCore = 8_000
	base.WarmupPerCore = 1_000
	return PopulationOptions{
		Base:       base,
		Population: population.Ref{Seed: 1, Size: size},
		Mixes:      [][]string{{"mcf06"}},
		NRHs:       []float64{64},
		Defenses:   []string{"rrs"},
	}
}

func TestPopulationJobsShape(t *testing.T) {
	opt := tinyPopulationOptions(3)
	opt.NRHs = []float64{2048, 64}
	jobs, err := PopulationJobs(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Per module: one baseline per mix, then (defenses x nrhs x 2 configs)
	// per mix.
	perModule := 1 * (1 + 1*2*2)
	if len(jobs) != 3*perModule {
		t.Fatalf("jobs = %d, want %d", len(jobs), 3*perModule)
	}
	for _, j := range jobs {
		if !strings.HasPrefix(j.Config.ModuleLabel, population.LabelPrefix) {
			t.Fatalf("job %+v targets module %q", j.Config, j.Config.ModuleLabel)
		}
	}
	if _, err := PopulationJobs(PopulationOptions{Base: tinyBase()}); err == nil {
		t.Error("empty population accepted")
	}
}

func TestPopulationBandShapes(t *testing.T) {
	opt := tinyPopulationOptions(4)
	cells, err := RunPopulationCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 { // 1 defense x 1 nRH x {NoSvard, Svard}
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Modules != 4 {
			t.Errorf("%s: folded %d modules, want 4", c.Config, c.Modules)
		}
		for name, b := range map[string]population.Band{"WS": c.WS, "HS": c.HS, "MS": c.MS} {
			if b.N != 4 {
				t.Errorf("%s %s: n = %d", c.Config, name, b.N)
			}
			if !(b.Min <= b.P5 && b.P5 <= b.P50 && b.P50 <= b.P95 && b.P95 <= b.Max) {
				t.Errorf("%s %s: quantiles unordered: %+v", c.Config, name, b)
			}
		}
		if c.WS.Mean <= 0 || c.WS.Mean > 1.2 {
			t.Errorf("%s: WS mean = %v", c.Config, c.WS.Mean)
		}
		if c.Violations != 0 {
			t.Errorf("%s: %d bitflips under the defense", c.Config, c.Violations)
		}
	}
}

// TestPopulationBandsOrderIndependent is the tentpole invariant: the
// confidence bands are bit-identical for any Workers value.
func TestPopulationBandsOrderIndependent(t *testing.T) {
	want, err := RunPopulationCtx(context.Background(), tinyPopulationOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		opt := tinyPopulationOptions(5)
		opt.Workers = workers
		got, err := RunPopulationCtx(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("bands differ at workers=%d:\n%+v\n%+v", workers, want, got)
		}
	}
}

// smallPopulation is a population sweep over n modules sized so that
// building and running each takes milliseconds.
func smallPopulation(n int) PopulationOptions {
	opt := tinyPopulationOptions(n)
	opt.Base.RowsPerBank = 512
	opt.Base.CellsPerRow = 512
	opt.Base.InstrPerCore = 2_000
	opt.Base.WarmupPerCore = 500
	return opt
}

// residentPopulationModules lists the synthetic modules mods holds.
func residentPopulationModules(mods *moduleTable) []moduleKey {
	var resident []moduleKey
	for k := range mods.entries {
		if strings.HasPrefix(k.label, population.LabelPrefix) {
			resident = append(resident, k)
		}
	}
	return resident
}

// TestPopulationModulesBounded: a population cell reaches the module
// table through every route — a sweep, a compute batch, the fabric
// coordinator's local fallback — and each module pins megabytes of
// per-row tables, so 10K chips must never stay resident. However many
// distinct modules run, at most maxResidentPopModules remain in the
// table. Four goroutines share the work, as a worker's slots do, on an
// env whose table holds nothing else.
func TestPopulationModulesBounded(t *testing.T) {
	opt := smallPopulation(3 * maxResidentPopModules)
	jobs, err := PopulationJobs(opt)
	if err != nil {
		t.Fatal(err)
	}
	perModule := len(jobs) / opt.Population.Size
	e := &env{modules: &moduleTable{}}
	const slots = 4
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s * perModule; i < len(jobs); i += slots * perModule {
				if _, err := e.run(jobs[i].Config, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if resident := residentPopulationModules(e.modules); len(resident) > maxResidentPopModules {
		t.Fatalf("%d population modules resident after running %d, want <= %d",
			len(resident), opt.Population.Size, maxResidentPopModules)
	}
}

// TestPopulationSweepEvictsModules: a sweep over more modules than the
// cache holds leaves no more than the bound resident.
func TestPopulationSweepEvictsModules(t *testing.T) {
	opt := smallPopulation(maxResidentPopModules + 4)
	if _, err := RunPopulationCtx(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if resident := residentPopulationModules(defaultEnv.modules); len(resident) > maxResidentPopModules {
		t.Fatalf("%d population modules still cached after the sweep, want <= %d: %v",
			len(resident), maxResidentPopModules, resident)
	}
}

// TestPopulationSweepParallelSmoke drives a larger population through the
// parallel path; under -race it doubles as the data-race smoke for the
// one-pass fold + eviction machinery.
func TestPopulationSweepParallelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("population smoke is not short")
	}
	opt := tinyPopulationOptions(64)
	opt.Base.RowsPerBank = 512
	opt.Base.CellsPerRow = 512
	opt.Base.InstrPerCore = 4_000
	opt.Base.WarmupPerCore = 500
	opt.Workers = 4
	var ran atomic.Int64
	opt.Runner = func(cfg Config) (Result, error) {
		ran.Add(1)
		return PooledRun(cfg)
	}
	cells, err := RunPopulationCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Modules != 64 {
			t.Errorf("%s: folded %d modules, want 64", c.Config, c.Modules)
		}
	}
	jobs, err := PopulationJobs(opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != int64(len(jobs)) {
		t.Errorf("runner ran %d jobs, want %d", n, len(jobs))
	}
}
