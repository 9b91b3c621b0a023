package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"svard/internal/cache"
	"svard/internal/sim"
	"svard/internal/temporal"
)

// fig12GoldenFile mirrors internal/sim's golden fixture layout: the
// exact options the fixture swept plus the recorded cells, so this
// package replays the identical sweep without depending on sim's test
// internals.
type fig12GoldenFile struct {
	Base     sim.Config
	Mixes    [][]string
	NRHs     []float64
	Defenses []string
	Profiles []string
	Cells    []sim.Fig12Cell
}

// goldenSpec loads internal/sim's Fig. 12 golden fixture and rebuilds
// the campaign spec that sweeps exactly those cells.
func goldenSpec(t testing.TB) (Spec, []sim.Fig12Cell) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "fig12_golden.json"))
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/sim/ -run Golden -update)", err)
	}
	var g fig12GoldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return Spec{
		Figures:  []string{Fig12},
		Base:     g.Base,
		Mixes:    g.Mixes,
		NRHs:     g.NRHs,
		Defenses: g.Defenses,
		Profiles: g.Profiles,
	}, g.Cells
}

func newStore(t *testing.T, dir string) *cache.Store {
	t.Helper()
	s, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countingSim wraps sim.Run, counting real simulations.
func countingSim(calls *atomic.Int64) sim.Runner {
	return func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Run(cfg)
	}
}

// failAfter runs real simulations until n have succeeded, then fails
// every later job — the model of a campaign killed mid-sweep.
func failAfter(n int64, calls *atomic.Int64) sim.Runner {
	return func(cfg sim.Config) (sim.Result, error) {
		if calls.Add(1) > n {
			return sim.Result{}, errors.New("interrupted")
		}
		return sim.Run(cfg)
	}
}

// TestCampaignColdThenWarmMatchesGolden: a cold campaign reproduces the
// golden cells exactly; a warm re-run over the same store recomputes
// nothing and reproduces them again (cold vs warm sweep equivalence).
func TestCampaignColdThenWarmMatchesGolden(t *testing.T) {
	spec, golden := goldenSpec(t)
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t, t.TempDir())

	var calls atomic.Int64
	eng := &Engine{Store: store, Workers: 4, Sim: countingSim(&calls)}
	cold, err := eng.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Fig12, golden) {
		t.Fatalf("cold campaign cells differ from golden fixture:\ngot  %+v\nwant %+v", cold.Fig12, golden)
	}
	if cold.Total != len(jobs) || int(calls.Load()) != len(jobs) {
		t.Errorf("cold run: total=%d sims=%d, want %d", cold.Total, calls.Load(), len(jobs))
	}
	if cold.Computed != len(jobs) || cold.Served != 0 {
		t.Errorf("cold attribution: computed=%d served=%d, want %d/0", cold.Computed, cold.Served, len(jobs))
	}
	if cold.Stats.Misses != uint64(len(jobs)) || cold.Stats.Hits() != 0 {
		t.Errorf("cold stats = %v", cold.Stats)
	}

	warm, err := eng.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Fig12, golden) {
		t.Fatal("warm campaign cells differ from golden fixture")
	}
	if int(calls.Load()) != len(jobs) {
		t.Errorf("warm run re-simulated: %d total sims, want %d", calls.Load(), len(jobs))
	}
	if warm.Computed != 0 || warm.Served != len(jobs) {
		t.Errorf("warm attribution: computed=%d served=%d, want 0/%d", warm.Computed, warm.Served, len(jobs))
	}
	// Stats is the shared store's global snapshot: after the warm run it
	// still reports the cold run's misses plus the warm run's hits.
	if warm.Stats.Misses != uint64(len(jobs)) || warm.Stats.Hits() != uint64(len(jobs)) {
		t.Errorf("warm stats = %v", warm.Stats)
	}
}

// TestCampaignInterruptedThenResumed is the acceptance criterion: a
// Fig. 12 sweep interrupted mid-run and restarted with resume completes
// from cached cells and produces cells bit-identical to a single cold
// serial run (the golden fixture, which -update records from a serial
// sweep).
func TestCampaignInterruptedThenResumed(t *testing.T) {
	spec, golden := goldenSpec(t)
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const interruptAt = 5

	// First run: killed after 5 completed simulations.
	var calls1 atomic.Int64
	eng1 := &Engine{Store: newStore(t, dir), Workers: 2, Sim: failAfter(interruptAt, &calls1)}
	if _, err := eng1.RunCtx(context.Background(), spec); err == nil {
		t.Fatal("interrupted campaign reported success")
	} else if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Restart in a fresh store (fresh process, in effect), resuming.
	var calls2 atomic.Int64
	eng2 := &Engine{Store: newStore(t, dir), Workers: 2, Resume: true, Sim: countingSim(&calls2)}
	out, err := eng2.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Fig12, golden) {
		t.Fatalf("resumed campaign cells differ from the cold serial golden run:\ngot  %+v\nwant %+v", out.Fig12, golden)
	}
	if out.Resumed != interruptAt {
		t.Errorf("Resumed = %d, want %d journaled jobs from the interrupted run", out.Resumed, interruptAt)
	}
	want := int64(len(jobs) - interruptAt)
	if calls2.Load() != want {
		t.Errorf("resume re-simulated %d jobs, want %d (the %d interrupted-run cells must come from cache)",
			calls2.Load(), want, interruptAt)
	}
	if out.Computed != int(want) || out.Served != interruptAt {
		t.Errorf("resume attribution: computed=%d served=%d, want %d/%d", out.Computed, out.Served, want, interruptAt)
	}
	if out.Stats.DiskHits != interruptAt {
		t.Errorf("resume stats = %v, want %d disk hits (fresh store, so global == this run)", out.Stats, interruptAt)
	}
}

// fakeSim is a cheap deterministic stand-in for sim.Run for tests that
// exercise engine accounting, not simulation.
func fakeSim(cfg sim.Config) (sim.Result, error) {
	ipc := make([]float64, cfg.Cores)
	for i := range ipc {
		ipc[i] = 1 + float64(i)*0.25 + cfg.NRH/1e6
	}
	return sim.Result{IPC: ipc, Cycles: 1000, Finished: true}, nil
}

func tinySpec() Spec {
	base := sim.DefaultConfig()
	base.Cores = 2
	return Spec{
		Figures:  []string{Fig12, Fig13},
		Base:     base,
		Mixes:    [][]string{{"mcf06", "lbm06"}},
		NRHs:     []float64{64},
		Defenses: []string{"para"},
		Profiles: []string{"S0"},
		Benign:   []string{"mcf06"},
	}
}

func TestEngineMemoryOnlyStore(t *testing.T) {
	store := newStore(t, "") // no disk: still deduplicates and folds
	eng := &Engine{Store: store, Workers: 2, Sim: fakeSim}
	out, err := eng.RunCtx(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// fig12: 1 baseline + 1*1*2*1*1 cells = 3; fig13: 2*(2+1) = 6.
	if out.Total != 9 {
		t.Errorf("Total = %d, want 9", out.Total)
	}
	if len(out.Fig12) != 2 { // NoSvard + Svard-S0
		t.Errorf("Fig12 cells = %d, want 2", len(out.Fig12))
	}
	if len(out.Fig13) != 4 {
		t.Errorf("Fig13 cells = %d, want 4", len(out.Fig13))
	}
	if out.Stats.Writes != 0 {
		t.Errorf("memory-only store wrote %d disk entries", out.Stats.Writes)
	}
}

// rejection is one way to break a valid spec, and the message the
// planner must refuse it with. The three tables below are shared by the
// Validate tests and TestPlan, so Plan and its reader are pinned to the
// same messages.
type rejection struct {
	breakIt func(*Spec)
	want    string
}

var brokenSpecs = map[string]rejection{
	"unknown-figure":   {func(s *Spec) { s.Figures = []string{"fig99"} }, `campaign: unknown figure "fig99" (have fig12, fig13)`},
	"unknown-defense":  {func(s *Spec) { s.Defenses = []string{"guardian"} }, `campaign: unknown defense "guardian" (have aqua, blockhammer, hydra, para, rrs)`},
	"unknown-workload": {func(s *Spec) { s.Mixes = [][]string{{"mcf06", "no-such"}} }, `campaign: mix 0: trace: unknown workload "no-such"`},
	"unknown-profile":  {func(s *Spec) { s.Profiles = []string{"S0", "X9"} }, `campaign: unknown module profile "X9" (have H0, H1, H2, H3, H4, M0, M1, M2, M3, M4, S0, S1, S2, S3, S4)`},
	"unknown-attack":   {func(s *Spec) { s.Mixes = [][]string{{"mcf06", "attack:nope"}} }, `campaign: mix 0: trace: unknown attack pattern "attack:nope" (have attack:hydra, attack:rrs)`},
	"short-mix":        {func(s *Spec) { s.Mixes = [][]string{{"mcf06"}} }, `campaign: mix 0 has 1 workloads, need one per core (2)`},
	"bad-benign":       {func(s *Spec) { s.Benign = []string{"no-such"} }, `campaign: benign workloads: trace: unknown workload "no-such"`},
	"fig13-one-core":   {func(s *Spec) { s.Base.Cores = 1; s.Mixes = [][]string{{"mcf06"}} }, `sim: Fig. 13 needs >= 2 cores (1 attacker + >= 1 benign), got 1`},
	"unknown-backend":  {func(s *Spec) { s.Backends = []string{"lpddr5"} }, `campaign: backends: dram: unknown backend "lpddr5" (have [ddr4-3200 hbm2])`},
	"bad-base-backend": {func(s *Spec) { s.Base.Backend = "gddr6" }, `campaign: base config: dram: unknown backend "gddr6" (have [ddr4-3200 hbm2])`},
	// The next four size the default mix draw, which runs before validation:
	// each used to panic in it or allocate whatever it was asked for.
	"negative-cores": {func(s *Spec) { s.Base.Cores = -1; s.Mixes = nil }, `campaign: base config: Cores is -1, want 1..1024`},
	"zero-cores":     {func(s *Spec) { s.Base.Cores = 0; s.Mixes = [][]string{{}} }, `campaign: base config: Cores is 0, want 1..1024`},
	"absurd-cores":   {func(s *Spec) { s.Base.Cores = 1 << 30; s.Mixes = nil }, `campaign: base config: Cores is 1073741824, want 1..1024`},
	"absurd-mixes":   {func(s *Spec) { s.MixCount = 1 << 30; s.Mixes = nil }, `campaign: mix_count is 1073741824, want at most 1024 (the paper draws 120)`},
	// One cell over the cap (fig12: 1 + 2^18*2, fig13: 6), refused before
	// the grid expands.
	"too-many-cells": {func(s *Spec) { s.NRHs = make([]float64, 1<<18) }, `campaign: spec expands to 5.243e+05 cells, over the limit of 524288; split it into campaigns (they share the result cache)`},
}

// checkRejections breaks a fresh valid spec every way the table lists and
// requires derive to refuse each with the table's message.
func checkRejections(t *testing.T, valid func() Spec, table map[string]rejection, derive func(Spec) error) {
	t.Helper()
	for name, r := range table {
		t.Run(name, func(t *testing.T) {
			s := valid()
			r.breakIt(&s)
			if err := derive(s); err == nil {
				t.Error("a broken spec was accepted")
			} else if err.Error() != r.want {
				t.Errorf("rejected with %q, want %q", err, r.want)
			}
		})
	}
}

func TestSpecValidate(t *testing.T) {
	checkRejections(t, tinySpec, brokenSpecs, Spec.Validate)
	if err := tinySpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestSpecFingerprint(t *testing.T) {
	a, b := tinySpec(), tinySpec()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical specs fingerprint differently")
	}
	b.NRHs = []float64{128}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different sweeps share a fingerprint")
	}
	// Normalization makes implicit and explicit defaults agree.
	c := tinySpec()
	c.Figures = nil
	d := tinySpec()
	d.Figures = []string{Fig12, Fig13}
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("default figures fingerprint differently from explicit ones")
	}
	// The backend axis scopes its own journal, but a spec that never
	// names backends fingerprints identically to one from before the
	// axis existed (omitempty: pre-axis journals keep resuming).
	e := tinySpec()
	e.Backends = []string{"hbm2"}
	if e.Fingerprint() == a.Fingerprint() {
		t.Error("backend sweep shares a fingerprint with the default-backend sweep")
	}
	f := tinySpec()
	f.Backends = []string{}
	if f.Fingerprint() != a.Fingerprint() {
		t.Error("empty Backends changed the fingerprint; old journals orphaned")
	}
}

// TestSpecBackendsAxis: naming backends multiplies the job list once
// per backend, stamps every job's config with its backend, suffixes
// labels so cells from different geometries stay distinguishable, and
// keeps every cache key distinct across the expansion.
func TestSpecBackendsAxis(t *testing.T) {
	spec, _ := goldenSpec(t)
	baseJobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	spec.Backends = []string{"ddr4-3200", "hbm2"}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*len(baseJobs) {
		t.Fatalf("jobs = %d, want %d (two backends x %d)", len(jobs), 2*len(baseJobs), len(baseJobs))
	}
	counts := map[string]int{}
	seen := map[string]bool{}
	for _, job := range jobs {
		counts[job.Config.Backend]++
		if !strings.Contains(job.Label, "["+job.Config.Backend+"]") {
			t.Errorf("job %q does not name its backend %q", job.Label, job.Config.Backend)
		}
		key := cache.Key(job.Config)
		if seen[key] {
			t.Errorf("duplicate cache key for job %q", job.Label)
		}
		seen[key] = true
	}
	if counts["ddr4-3200"] != len(baseJobs) || counts["hbm2"] != len(baseJobs) {
		t.Errorf("backend job split = %v, want %d each", counts, len(baseJobs))
	}
}

func TestJournalTornLineAndResume(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, strings.Repeat("ab", 32), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := strings.Repeat("11", 32), strings.Repeat("22", 32)
	j.Done(k1)
	j.Done(k2)
	j.Done(k2) // idempotent
	j.Close()

	// Simulate a crash mid-append: a torn half-written key.
	path := journalPath(dir, strings.Repeat("ab", 32))
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(strings.Repeat("33", 10))
	f.Close()

	r, err := OpenJournal(dir, strings.Repeat("ab", 32), 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resumed() != 2 {
		t.Errorf("resumed = %d, want 2 (torn line must be dropped)", r.Resumed())
	}
	// A key appended right after the torn line must not be glued onto it:
	// the next resume still sees it.
	k3 := strings.Repeat("44", 32)
	r.Done(k3)
	r.Close()
	r2, err := OpenJournal(dir, strings.Repeat("ab", 32), 10, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Resumed() != 3 {
		t.Errorf("resumed = %d, want 3 (key after torn line must survive)", r2.Resumed())
	}

	// Without resume, the journal restarts from zero.
	fresh, err := OpenJournal(dir, strings.Repeat("ab", 32), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Resumed() != 0 {
		t.Errorf("fresh journal resumed %d", fresh.Resumed())
	}
}

// tinyPopulationSpec is a real-simulation population campaign sized to
// run in well under a second per cell.
func tinyPopulationSpec() Spec {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 8_000
	base.WarmupPerCore = 1_000
	return Spec{
		Figures:    []string{Fig12},
		Base:       base,
		Mixes:      [][]string{{"mcf06", "lbm06"}},
		NRHs:       []float64{64},
		Defenses:   []string{"para"},
		Population: &PopulationSpec{Seed: 7, Size: 3},
	}
}

func TestPopulationSpecJobsAndValidate(t *testing.T) {
	jobs, err := tinyPopulationSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Per module: 1 baseline + 1 defense x 1 nRH x 2 configs, x 1 mix.
	if want := 3 * 3; len(jobs) != want {
		t.Errorf("jobs = %d, want %d", len(jobs), want)
	}
	seen := map[string]bool{}
	for _, job := range jobs {
		key := cache.Key(job.Config)
		if seen[key] {
			t.Errorf("duplicate cache key for job %q", job.Label)
		}
		seen[key] = true
	}

	checkRejections(t, tinyPopulationSpec, brokenPopulationSpecs, Spec.Validate)
}

const dropFig13Population = `campaign: population campaigns sweep fig12 confidence bands only; drop fig13 (or evaluate fig13 over population labels directly via sim.Fig13Options)`

var brokenPopulationSpecs = map[string]rejection{
	"zero-size":      {func(s *Spec) { s.Population.Size = 0 }, `campaign: population size 0, want >= 1`},
	"with-fig13":     {func(s *Spec) { s.Figures = []string{Fig12, Fig13}; s.Benign = []string{"mcf06"} }, dropFig13Population},
	"with-profiles":  {func(s *Spec) { s.Profiles = []string{"S0"} }, `campaign: population and profiles are mutually exclusive (the population IS the profile axis)`},
	"with-backends":  {func(s *Spec) { s.Backends = []string{"hbm2"} }, `campaign: population campaigns sweep one backend; set base.backend instead of backends`},
	"default-figure": {func(s *Spec) { s.Figures = nil }, dropFig13Population}, // normalizes to both -> fig13 conflict
	"absurd-size":    {func(s *Spec) { s.Population.Size = 1 << 40 }, `campaign: spec expands to 3.299e+12 cells, over the limit of 524288; split it into campaigns (they share the result cache)`},
}

// TestPopulationFingerprintNeutral: the Population field must be
// invisible when unset — pre-population specs keep their exact
// fingerprint and journal — and must scope a distinct campaign when set.
func TestPopulationFingerprintNeutral(t *testing.T) {
	plain := tinySpec()
	b, err := json.Marshal(plain.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "population") {
		t.Fatalf("population leaks into a population-free spec's canonical JSON: %s", b)
	}

	a := tinyPopulationSpec()
	c := tinyPopulationSpec()
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("identical population specs fingerprint differently")
	}
	c.Population.Seed = 8
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different population seeds share a fingerprint")
	}
	d := tinyPopulationSpec()
	d.Population = nil
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("population campaign shares a fingerprint with the point-estimate campaign")
	}
}

// TestPopulationCampaignInterruptedThenResumed is the tentpole
// acceptance criterion: a population campaign killed mid-sweep and
// resumed completes from cached cells and reports confidence bands
// bit-identical to an uninterrupted run.
func TestPopulationCampaignInterruptedThenResumed(t *testing.T) {
	spec := tinyPopulationSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one uninterrupted cold run in its own store.
	ref, err := (&Engine{Store: newStore(t, t.TempDir()), Workers: 2, PopulationChunk: 2}).RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Bands) != 2 || ref.Fig12 != nil {
		t.Fatalf("population campaign outcome: %d bands, fig12 %v", len(ref.Bands), ref.Fig12)
	}
	for _, c := range ref.Bands {
		if c.Modules != spec.Population.Size {
			t.Errorf("%s: folded %d modules, want %d", c.Config, c.Modules, spec.Population.Size)
		}
	}

	// Interrupted run: killed after 4 completed simulations.
	dir := t.TempDir()
	const interruptAt = 4
	var calls1 atomic.Int64
	eng1 := &Engine{Store: newStore(t, dir), Workers: 2, Sim: failAfter(interruptAt, &calls1)}
	if _, err := eng1.RunCtx(context.Background(), spec); err == nil {
		t.Fatal("interrupted population campaign reported success")
	}

	// Resume in a fresh store over the same directory, with a different
	// chunk size: results must not notice either.
	var calls2 atomic.Int64
	eng2 := &Engine{Store: newStore(t, dir), Workers: 1, Resume: true, PopulationChunk: 1, Sim: countingSim(&calls2)}
	out, err := eng2.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Bands, ref.Bands) {
		t.Fatalf("resumed bands differ from the uninterrupted run:\ngot  %+v\nwant %+v", out.Bands, ref.Bands)
	}
	if out.Resumed != interruptAt {
		t.Errorf("Resumed = %d, want %d", out.Resumed, interruptAt)
	}
	if want := int64(len(jobs) - interruptAt); calls2.Load() != want {
		t.Errorf("resume re-simulated %d jobs, want %d", calls2.Load(), want)
	}
}

// tinyTemporalSpec is a real-simulation margin-erosion campaign sized
// to run in well under a second per cell.
func tinyTemporalSpec() Spec {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 8_000
	base.WarmupPerCore = 1_000
	return Spec{
		Figures:  []string{Fig12},
		Base:     base,
		Mixes:    [][]string{{"mcf06", "lbm06"}},
		NRHs:     []float64{256, 64},
		Defenses: []string{"para"},
		Temporal: &TemporalSpec{
			Process:   temporal.Spec{EpochCycles: 65536, Drift: -0.03, Sigma: 0.05},
			Intervals: []uint64{0, 16},
		},
	}
}

func TestTemporalSpecJobsAndValidate(t *testing.T) {
	jobs, err := tinyTemporalSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// (1 static + 2 interval) grids x 1 defense x 2 svard x 2 nRH x 1 mix.
	if want := 3 * 4; len(jobs) != want {
		t.Errorf("jobs = %d, want %d", len(jobs), want)
	}
	seen := map[string]bool{}
	for _, job := range jobs {
		key := cache.Key(job.Config)
		if seen[key] {
			t.Errorf("duplicate cache key for job %q", job.Label)
		}
		seen[key] = true
	}

	checkRejections(t, tinyTemporalSpec, brokenTemporalSpecs, Spec.Validate)
}

const dropFig13Temporal = `campaign: temporal campaigns sweep fig12 margin erosion only; drop fig13`

var brokenTemporalSpecs = map[string]rejection{
	"zero-epoch":      {func(s *Spec) { s.Temporal.Process.EpochCycles = 0 }, `campaign: temporal: temporal: epoch length must be > 0 cycles`},
	"negative-sigma":  {func(s *Spec) { s.Temporal.Process.Sigma = -0.1 }, `campaign: temporal: temporal: sigma must be >= 0, got -0.1`},
	"dip-above-one":   {func(s *Spec) { s.Temporal.Process.DipP = 1.5 }, `campaign: temporal: temporal: dip probability must be in [0, 1], got 1.5`},
	"process-age":     {func(s *Spec) { s.Temporal.Process.AgeEpochs = 4 }, `sim: erosion Process.AgeEpochs must be 0 — the sweep sets the age per interval (got 4)`},
	"dup-intervals":   {func(s *Spec) { s.Temporal.Intervals = []uint64{0, 16, 16} }, `sim: duplicate erosion interval 16`},
	"with-fig13":      {func(s *Spec) { s.Figures = []string{Fig12, Fig13}; s.Benign = []string{"mcf06"} }, dropFig13Temporal},
	"with-population": {func(s *Spec) { s.Population = &PopulationSpec{Seed: 1, Size: 2} }, `campaign: population and temporal are mutually exclusive`},
	"with-backends":   {func(s *Spec) { s.Backends = []string{"hbm2"} }, `campaign: temporal campaigns sweep one backend; set base.backend instead of backends`},
	"two-profiles":    {func(s *Spec) { s.Profiles = []string{"S0", "M0"} }, `campaign: temporal campaigns erode one module profile; set base config's ModuleLabel (or a single profile) instead of 2 profiles`},
	"base-temporal":   {func(s *Spec) { s.Base.Temporal = &temporal.Spec{EpochCycles: 1} }, `campaign: temporal campaigns attach the process themselves; base.Temporal must be unset`},
	"default-figure":  {func(s *Spec) { s.Figures = nil }, dropFig13Temporal}, // normalizes to both -> fig13 conflict
}

// TestTemporalFingerprintNeutral: the Temporal field must be invisible
// when unset — pre-temporal specs keep their exact fingerprint and
// journal — and must scope a distinct campaign when set.
func TestTemporalFingerprintNeutral(t *testing.T) {
	plain := tinySpec()
	b, err := json.Marshal(plain.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "temporal") {
		t.Fatalf("temporal leaks into a temporal-free spec's canonical JSON: %s", b)
	}

	a := tinyTemporalSpec()
	c := tinyTemporalSpec()
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("identical temporal specs fingerprint differently")
	}
	c.Temporal.Process.Drift = -0.04
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different temporal drifts share a fingerprint")
	}
	d := tinyTemporalSpec()
	d.Temporal = nil
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("temporal campaign shares a fingerprint with the static campaign")
	}
	// The default intervals are pinned by normalization, so a spec that
	// spells them out is the same campaign as one that omits them.
	e := tinyTemporalSpec()
	e.Temporal.Intervals = nil
	f := tinyTemporalSpec()
	f.Temporal.Intervals = sim.DefaultErosionIntervals()
	if e.Fingerprint() != f.Fingerprint() {
		t.Error("default intervals fingerprint differently from explicit ones")
	}
}

// TestErosionCampaignInterruptedThenResumed: a temporal campaign killed
// mid-sweep and resumed completes from cached cells and reports a
// margin-erosion table bit-identical to an uninterrupted run.
func TestErosionCampaignInterruptedThenResumed(t *testing.T) {
	spec := tinyTemporalSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one uninterrupted cold run in its own store.
	ref, err := (&Engine{Store: newStore(t, t.TempDir()), Workers: 2}).RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Erosion) != 4 || ref.Fig12 != nil {
		t.Fatalf("temporal campaign outcome: %d erosion cells, fig12 %v", len(ref.Erosion), ref.Fig12)
	}

	// Interrupted run: killed after 4 completed simulations.
	dir := t.TempDir()
	const interruptAt = 4
	var calls1 atomic.Int64
	eng1 := &Engine{Store: newStore(t, dir), Workers: 2, Sim: failAfter(interruptAt, &calls1)}
	if _, err := eng1.RunCtx(context.Background(), spec); err == nil {
		t.Fatal("interrupted temporal campaign reported success")
	}

	// Resume in a fresh store over the same directory, with a different
	// worker count: the erosion table must not notice either.
	var calls2 atomic.Int64
	eng2 := &Engine{Store: newStore(t, dir), Workers: 1, Resume: true, Sim: countingSim(&calls2)}
	out, err := eng2.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Erosion, ref.Erosion) {
		t.Fatalf("resumed erosion cells differ from the uninterrupted run:\ngot  %+v\nwant %+v", out.Erosion, ref.Erosion)
	}
	if out.Resumed != interruptAt {
		t.Errorf("Resumed = %d, want %d", out.Resumed, interruptAt)
	}
	if want := int64(len(jobs) - interruptAt); calls2.Load() != want {
		t.Errorf("resume re-simulated %d jobs, want %d", calls2.Load(), want)
	}
}

func TestSpecJobsCounts(t *testing.T) {
	spec, _ := goldenSpec(t)
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// baselines: 1 profile x 2 mixes; cells: 2 defenses x 2 nRHs x
	// 2 svard x 1 profile x 2 mixes.
	if want := 2 + 16; len(jobs) != want {
		t.Errorf("jobs = %d, want %d", len(jobs), want)
	}
	// Every job must carry a complete, runnable config with a distinct
	// cache key (the engine relies on key uniqueness for journaling).
	seen := map[string]bool{}
	for _, job := range jobs {
		key := cache.Key(job.Config)
		if seen[key] {
			t.Errorf("duplicate cache key for job %q", job.Label)
		}
		seen[key] = true
	}
}
