package sim

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"svard/internal/temporal"
)

// update regenerates the golden fixtures under testdata/:
//
//	go test ./internal/sim/ -run Golden -update
//
// The fixtures pin the exact cell values of a small Fig. 12/13 sweep, so
// any refactor of the sweep machinery (job enumeration, runner routing,
// metric folding, caching) must prove bit-identical output against the
// recorded seed behavior. Floats are compared exactly: encoding/json
// round-trips float64 losslessly, and the simulator is deterministic by
// contract.
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// Fig12GoldenFile and Fig13GoldenFile record both the swept options and
// the resulting cells, so an out-of-package consumer (the campaign
// engine's resume test) can rebuild the identical sweep from the fixture
// alone, and drift between the fixture and the in-code options is
// detected rather than silently compared.
type Fig12GoldenFile struct {
	Base     Config
	Mixes    [][]string
	NRHs     []float64
	Defenses []string
	Profiles []string
	Cells    []Fig12Cell
}

type Fig13GoldenFile struct {
	Base     Config
	NRH      float64
	Benign   []string
	Profiles []string
	Cells    []Fig13Cell
}

// tinyBase is the fixtures' machine: two cores and small banks, for
// seconds-scale sweeps.
func tinyBase() Config {
	base := DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 20_000
	base.WarmupPerCore = 4_000
	return base
}

// goldenFig12Options is the fixture sweep: small enough for seconds-scale
// runs, wide enough to cover two defenses, two thresholds, both Svärd
// settings, and a min-max span over two mixes.
func goldenFig12Options() Fig12Options {
	return Fig12Options{
		Base:     tinyBase(),
		Mixes:    [][]string{{"mcf06", "ycsb-a"}, {"lbm06", "tpcc"}},
		NRHs:     []float64{1024, 64},
		Defenses: []string{"para", "rrs"},
		Profiles: []string{"S0"},
	}
}

// goldenFig12HBM2Options is the HBM2-backend fixture sweep: the same
// shape as the DDR4 fixture but narrower (one defense), since its job
// is pinning the multi-channel backend's numerical behavior, not
// re-covering the sweep machinery.
func goldenFig12HBM2Options() Fig12Options {
	base := tinyBase()
	base.Backend = "hbm2"
	return Fig12Options{
		Base:     base,
		Mixes:    [][]string{{"mcf06", "ycsb-a"}, {"lbm06", "tpcc"}},
		NRHs:     []float64{1024, 64},
		Defenses: []string{"para"},
		Profiles: []string{"S0"},
	}
}

func goldenFig13Options() Fig13Options {
	return Fig13Options{
		Base:     tinyBase(),
		NRH:      64,
		Benign:   []string{"mcf06"},
		Profiles: []string{"S0"},
	}
}

func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", path)
}

func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// compareCells checks got against want field-by-field via reflection, so
// a new cell field is compared the day it is added and every mismatch
// names the exact field.
func compareCells[T any](t *testing.T, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range got {
		gv, wv := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < gv.NumField(); f++ {
			if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
				t.Errorf("cell %d (%+v): field %s = %v, golden %v",
					i, want[i], gv.Type().Field(f).Name, gv.Field(f).Interface(), wv.Field(f).Interface())
			}
		}
	}
}

// checkGolden holds a golden sweep's cells to its fixture under testdata/,
// or rewrites the fixture under -update. file is the fixture the sweep
// would write, its Cells left nil: the options it records must be the
// fixture's, or the fixture pins some other sweep.
func checkGolden[F any, T any](t *testing.T, name string, file F, cells []T) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		reflect.ValueOf(&file).Elem().FieldByName("Cells").Set(reflect.ValueOf(cells))
		writeGolden(t, path, file)
		return
	}
	var golden F
	readGolden(t, path, &golden)
	recorded := reflect.ValueOf(&golden).Elem().FieldByName("Cells")
	want := recorded.Interface().([]T)
	recorded.SetZero()
	if !reflect.DeepEqual(golden, file) {
		t.Fatalf("golden fixture swept different options than the test; regenerate with -update\nfixture: %+v\ntest:    %+v", golden, file)
	}
	compareCells(t, cells, want)
}

func checkFig12Golden(t *testing.T, name string, opt Fig12Options) {
	t.Helper()
	cells, err := RunFig12Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, Fig12GoldenFile{
		Base: opt.Base, Mixes: opt.Mixes, NRHs: opt.NRHs,
		Defenses: opt.Defenses, Profiles: opt.Profiles,
	}, cells)
}

func TestGoldenFig12(t *testing.T) {
	checkFig12Golden(t, "fig12_golden.json", goldenFig12Options())
}

// TestGoldenFig12HBM2 pins the HBM2 backend's cell values, so backend
// or routing changes that alter HBM2 results are caught the same way
// DDR4 regressions are — by fixture, not by eye.
func TestGoldenFig12HBM2(t *testing.T) {
	checkFig12Golden(t, "fig12_hbm2_golden.json", goldenFig12HBM2Options())
}

func TestGoldenFig13(t *testing.T) {
	opt := goldenFig13Options()
	cells, err := RunFig13Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig13_golden.json", Fig13GoldenFile{
		Base: opt.Base, NRH: opt.NRH, Benign: opt.Benign, Profiles: opt.Profiles,
	}, cells)
}

// ErosionGolden pins one margin-erosion sweep: the swept options, every
// job's violation count in ErosionJobs order — the only Result field a
// temporal process may move — and the folded cells. The fixture holds
// two: "benchmark" is bench/workloads.go's erosion options under seed 1
// (benign mixes under a mild process: every count is 0, which is what
// the benchmark's checker cannot see drift away from), "attacked" is the
// same module under an adversarial mix and a harsher process with dips,
// where the tracker fires tens of thousands of times. Both were recorded
// before the tracker learned to bound a row's live threshold from below
// (issue 20), so they state independently what the exact comparison
// counts.
type ErosionGolden struct {
	Name      string
	Base      Config
	Process   temporal.Spec
	Intervals []uint64
	Mixes     [][]string
	NRHs      []float64
	Defenses  []string
	Jobs      []ErosionGoldenJob
	Cells     []ErosionCell
}

type ErosionGoldenJob struct {
	Label      string
	Violations uint64
}

// goldenErosionSweeps returns the fixture's sweeps, options only.
func goldenErosionSweeps() []ErosionGolden {
	fig12 := goldenFig12Options()
	short := fig12.Base
	short.InstrPerCore, short.WarmupPerCore = 8_000, 2_000
	return []ErosionGolden{{
		Name:      "benchmark",
		Base:      fig12.Base,
		Process:   temporal.Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02},
		Intervals: []uint64{0, 16, 64},
		Mixes:     fig12.Mixes,
		NRHs:      fig12.NRHs,
		Defenses:  []string{"para", "rrs"},
	}, {
		Name:      "attacked",
		Base:      short,
		Process:   temporal.Spec{EpochCycles: 65536, Drift: -0.05, Sigma: 0.1, DipP: 0.01, DipFactor: 0.5},
		Intervals: []uint64{0, 64},
		Mixes:     [][]string{{"attack:hydra", "mcf06"}},
		NRHs:      fig12.NRHs,
		Defenses:  []string{"para", "blockhammer"},
	}}
}

// run fills in g's Jobs and Cells, simulating each job once: the runner
// records every job's violations under its Config and the job list reads
// them back in order.
func (g *ErosionGolden) run(t *testing.T) {
	t.Helper()
	opt := ErosionOptions{
		Base: g.Base, Process: g.Process, Intervals: g.Intervals,
		Mixes: g.Mixes, NRHs: g.NRHs, Defenses: g.Defenses,
	}
	jobs, err := ErosionJobs(opt)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	byConfig := map[string]uint64{}
	configKey := func(cfg Config) string {
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	opt.Runner = func(cfg Config) (Result, error) {
		res, err := PooledRun(cfg)
		mu.Lock()
		byConfig[configKey(cfg)] = res.Violations
		mu.Unlock()
		return res, err
	}
	if g.Cells, err = RunErosionCtx(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		label := g.jobLabel(j.Config)
		v, ok := byConfig[configKey(j.Config)]
		if !ok {
			t.Fatalf("job %q never reached the runner", label)
		}
		g.Jobs = append(g.Jobs, ErosionGoldenJob{Label: label, Violations: v})
	}
}

// jobLabel names an erosion job the way the fixture records it: its grid
// point, its mix's index in g.Mixes and its truth leg.
func (g *ErosionGolden) jobLabel(cfg Config) string {
	name, leg := "NoSvard", " [calib]"
	if cfg.Svard {
		name = "Svard-" + cfg.ModuleLabel
	}
	if cfg.Temporal != nil {
		leg = fmt.Sprintf(" [age=%d]", cfg.Temporal.AgeEpochs)
	}
	mi := slices.IndexFunc(g.Mixes, func(m []string) bool { return slices.Equal(m, cfg.Mix) })
	return fmt.Sprintf("erosion %s nRH=%v %s mix %d%s", cfg.Defense, cfg.NRH, name, mi, leg)
}

func TestGoldenErosion(t *testing.T) {
	got := goldenErosionSweeps()
	for i := range got {
		got[i].run(t)
	}
	path := filepath.Join("testdata", "erosion_golden.json")
	if *update {
		writeGolden(t, path, got)
		return
	}
	var golden []ErosionGolden
	readGolden(t, path, &golden)
	if len(golden) != len(got) {
		t.Fatalf("fixture holds %d sweeps, the test runs %d; regenerate with -update", len(golden), len(got))
	}
	var fired uint64
	for i, g := range golden {
		want := got[i]
		want.Jobs, want.Cells = g.Jobs, g.Cells
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("golden fixture swept different options than the test; regenerate with -update\nfixture: %+v\ntest:    %+v", g, want)
		}
		compareCells(t, got[i].Jobs, g.Jobs)
		compareCells(t, got[i].Cells, g.Cells)
		for _, j := range g.Jobs {
			fired += j.Violations
		}
	}
	if fired == 0 {
		t.Error("no job in the fixture counts a violation; the golden cannot see the tracker's exact path")
	}
}
