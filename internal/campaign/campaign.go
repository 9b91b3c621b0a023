// Package campaign is the resumable sweep engine over the
// content-addressed result cache (internal/cache): a campaign is a
// declarative description of which figures to regenerate and which
// defenses, thresholds, profiles, and workload mixes to sweep; the
// engine expands it to the flat simulation job list, routes every job
// through the one cell path (Cell.Run: cache, then a worker slot, then
// the pooled simulator), journals completed jobs, and picks an
// interrupted campaign back up exactly where it stopped.
//
// Correctness never depends on the journal: the cache is keyed by the
// full simulation configuration, so a restarted campaign recomputes only
// the cells it has never finished, and the folded figure cells are
// bit-identical whether the cache was cold, warm, or mixed (asserted
// against internal/sim's golden fixtures by this package's tests).
package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"svard/internal/cache"
	"svard/internal/obs"
	"svard/internal/population"
	"svard/internal/profile"
	"svard/internal/sim"
	"svard/internal/temporal"
	"svard/internal/trace"
)

// Spec declares one campaign. The zero value of every field selects the
// paper's defaults (both figures, all five defenses, the 4K..64
// threshold sweep, the three representative profiles, MixCount drawn
// mixes), so the smallest useful spec is just a Base config.
type Spec struct {
	Name    string   `json:"name,omitempty"`
	Figures []string `json:"figures,omitempty"` // subset of "fig12", "fig13"; empty = both

	// Base carries the sizing knobs (cores, instructions, module scale,
	// seed). The per-job fields the expansion owns — Mix, ModuleLabel,
	// Defense, Svard, NRH — are overwritten per cell.
	Base sim.Config `json:"base"`

	Mixes    [][]string `json:"mixes,omitempty"`     // explicit Fig. 12 mixes
	MixCount int        `json:"mix_count,omitempty"` // mixes drawn from the catalog if Mixes is empty (default 4)
	NRHs     []float64  `json:"nrhs,omitempty"`
	Defenses []string   `json:"defenses,omitempty"`
	Profiles []string   `json:"profiles,omitempty"`
	Backends []string   `json:"backends,omitempty"` // memory backends to sweep (empty = just Base.Backend)

	Benign []string `json:"benign,omitempty"` // Fig. 13 benign workloads
	NRH13  float64  `json:"nrh13,omitempty"`  // Fig. 13 threshold (default 64)

	// Population, when set, turns the Fig. 12 sweep into a Monte Carlo
	// confidence-band sweep over Size synthetic modules sampled from the
	// Table 5 fit by (Seed, index) — the campaign's outcome carries
	// Bands instead of Fig12 cells. The field is a pointer with
	// omitempty precisely so it is fingerprint-neutral when absent:
	// every pre-population spec keeps its exact fingerprint, journal,
	// and cache keys.
	Population *PopulationSpec `json:"population,omitempty"`

	// Temporal, when set, turns the Fig. 12 sweep into a margin-erosion
	// sweep (sim.ErosionOptions): the same (defense, nRH, Svärd) grid is
	// evaluated under the calibration-time truth and under a live truth
	// aged by each re-calibration interval, and the outcome carries
	// Erosion cells instead of Fig12 cells. Like Population, the field
	// is a pointer with omitempty so it is fingerprint-neutral when
	// absent.
	Temporal *TemporalSpec `json:"temporal,omitempty"`
}

// PopulationSpec declares a campaign's synthetic module population.
// Only result-shaping knobs live here (they feed the fingerprint).
type PopulationSpec struct {
	Seed uint64 `json:"seed"`
	Size int    `json:"size"`
}

// TemporalSpec declares a campaign's margin-erosion sweep: the temporal
// process (its AgeEpochs must be 0 — the intervals own the age axis)
// and the re-calibration intervals to evaluate.
type TemporalSpec struct {
	Process   temporal.Spec `json:"process"`
	Intervals []uint64      `json:"intervals,omitempty"`
}

// ReadSpec decodes the campaign spec file at path over spec, the one
// reader behind every -spec flag, by DecodeJSON's rule.
func ReadSpec(path string, spec *Spec) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := DecodeJSON(f, "spec", spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// DecodeJSON decodes the one JSON value r holds into v, the rule for
// every input from outside: spec files, and the request bodies of the
// service and the fabric coordinator. A field v does not have, such as a
// misspelling or a base config's Core or NoSkip, is an error naming it,
// not a silent default, and so is anything but whitespace after the
// value; what names the value in the error. An error of r's own (a size
// cap's) comes back wrapped, for the caller to tell apart.
func DecodeJSON(r io.Reader, what string, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	rest := io.MultiReader(dec.Buffered(), r)
	var buf [32]byte
	for {
		n, err := rest.Read(buf[:])
		if tail := bytes.TrimLeft(buf[:n], " \t\r\n"); len(tail) > 0 {
			return fmt.Errorf("data after the %s: %q", what, tail)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("decode %s: %w", what, err)
		}
	}
}

// Figures a campaign can regenerate.
const (
	Fig12 = "fig12"
	Fig13 = "fig13"
)

// Limits on the two numbers that size the default mix draw, which
// happens before the rest of a spec can be validated (a spec arrives
// over HTTP as readily as from a flag). The paper draws 120 mixes for an
// 8-core system.
const (
	maxMixCount = 1024
	maxCores    = 1024
)

// maxCells caps how many cells one campaign expands to. A spec's axes
// multiply (population size × mixes × nRHs × defenses × profiles ×
// backends, or × intervals) and the expansion costs ~300 bytes a cell, so
// the product is checked before anything expands. 2^19 = 524 288 is 20
// times a paper-scale Fig. 12 (120 mixes: 25 560 cells with baselines)
// and holds a 1000-chip population over the default grid (284 000); a
// larger sweep splits into campaigns that share the result cache.
const maxCells = 1 << 19

// checkDraw rejects a spec whose mixes cannot or should not be drawn.
func (s Spec) checkDraw() error {
	if s.Base.Cores < 1 || s.Base.Cores > maxCores {
		return fmt.Errorf("campaign: base config: Cores is %d, want 1..%d", s.Base.Cores, maxCores)
	}
	if s.MixCount > maxMixCount {
		return fmt.Errorf("campaign: mix_count is %d, want at most %d (the paper draws 120)", s.MixCount, maxMixCount)
	}
	return nil
}

// Normalized returns the spec with every default filled in — the
// figures, the drawn mixes, the mix count — so it fully pins the
// campaign (svard-sweep -print-spec emits it; saving it as a -spec file
// reproduces the identical sweep even if the drawing defaults ever
// change). Idempotent, and fingerprint-neutral: a spec and its
// normalized form scope the same journal. A spec that fails checkDraw
// keeps its empty Mixes — validate reports why — so no input makes this
// panic or allocate out of proportion to its size.
func (s Spec) Normalized() Spec {
	if len(s.Figures) == 0 {
		s.Figures = []string{Fig12, Fig13}
	}
	if len(s.Mixes) == 0 && s.checkDraw() == nil {
		n := s.MixCount
		if n <= 0 {
			n = 4
		}
		s.Mixes = trace.Mixes(n, s.Base.Cores, s.Base.Seed)
		s.MixCount = n
	}
	if s.Temporal != nil && len(s.Temporal.Intervals) == 0 {
		t := *s.Temporal
		t.Intervals = sim.DefaultErosionIntervals()
		s.Temporal = &t
	}
	return s
}

// validate rejects a (normalized) spec whose sweep would fail: unknown
// figures, defenses, or workload names surface here, before any simulation
// runs. User-supplied mixes (svard-sweep spec files) go entry-by-entry
// through the -mix flag's validator. What only an expansion sees (Fig. 13
// core count, erosion age and intervals) Plan's one expansion rejects.
func (s Spec) validate() error {
	if err := s.checkDraw(); err != nil {
		return err
	}
	for _, f := range s.Figures {
		if f != Fig12 && f != Fig13 {
			return fmt.Errorf("campaign: unknown figure %q (have %s, %s)", f, Fig12, Fig13)
		}
	}
	for _, d := range s.Defenses {
		if !slices.Contains(sim.DefenseNames, d) {
			return fmt.Errorf("campaign: unknown defense %q (have %s)", d, strings.Join(sim.DefenseNames, ", "))
		}
	}
	for mi, mix := range s.Mixes {
		if len(mix) != s.Base.Cores {
			return fmt.Errorf("campaign: mix %d has %d workloads, need one per core (%d)", mi, len(mix), s.Base.Cores)
		}
		for _, w := range mix {
			if err := trace.CheckWorkload(w); err != nil {
				return fmt.Errorf("campaign: mix %d: %w", mi, err)
			}
		}
	}
	for _, p := range s.Profiles {
		if _, ok := profile.SpecByLabel(p); !ok {
			labels := make([]string, 0, len(profile.Table5()))
			for _, spec := range profile.Table5() {
				labels = append(labels, spec.Label)
			}
			return fmt.Errorf("campaign: unknown module profile %q (have %s)", p, strings.Join(labels, ", "))
		}
	}
	for _, w := range s.Benign {
		if err := trace.CheckWorkload(w); err != nil {
			return fmt.Errorf("campaign: benign workloads: %w", err)
		}
	}
	// Checked before the base, whose Validate would otherwise judge the
	// stray process (its epochs against MaxCycles) and hide this reason.
	if s.Temporal != nil && s.Base.Temporal != nil {
		return fmt.Errorf("campaign: temporal campaigns attach the process themselves; base.Temporal must be unset")
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("campaign: base config: %w", err)
	}
	for _, be := range s.Backends {
		cfg := s.Base
		cfg.Backend = be
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("campaign: backends: %w", err)
		}
	}
	if s.Population != nil {
		if s.Population.Size < 1 {
			return fmt.Errorf("campaign: population size %d, want >= 1", s.Population.Size)
		}
		if s.has(Fig13) {
			return fmt.Errorf("campaign: population campaigns sweep fig12 confidence bands only; drop fig13 (or evaluate fig13 over population labels directly via sim.Fig13Options)")
		}
		if len(s.Profiles) > 0 {
			return fmt.Errorf("campaign: population and profiles are mutually exclusive (the population IS the profile axis)")
		}
		if len(s.Backends) > 0 {
			return fmt.Errorf("campaign: population campaigns sweep one backend; set base.backend instead of backends")
		}
		if s.Temporal != nil {
			return fmt.Errorf("campaign: population and temporal are mutually exclusive")
		}
	}
	if s.Temporal != nil {
		if err := s.Temporal.Process.Validate(); err != nil {
			return fmt.Errorf("campaign: temporal: %w", err)
		}
		if s.has(Fig13) {
			return fmt.Errorf("campaign: temporal campaigns sweep fig12 margin erosion only; drop fig13")
		}
		if len(s.Profiles) > 1 {
			return fmt.Errorf("campaign: temporal campaigns erode one module profile; set base config's ModuleLabel (or a single profile) instead of %d profiles", len(s.Profiles))
		}
		if len(s.Backends) > 0 {
			return fmt.Errorf("campaign: temporal campaigns sweep one backend; set base.backend instead of backends")
		}
	}
	if n := s.cells(); n > maxCells {
		return fmt.Errorf("campaign: spec expands to %.4g cells, over the limit of %d; split it into campaigns (they share the result cache)", n, maxCells)
	}
	// The swept thresholds override Base.NRH per job, so each must be as
	// valid as it (Fig. 13 fills an unset nrh13 with 64).
	for _, nrh := range s.NRHs {
		if err := s.withNRH(nrh); err != nil {
			return fmt.Errorf("campaign: nrhs: %w", err)
		}
	}
	if s.NRH13 != 0 {
		if err := s.withNRH(s.NRH13); err != nil {
			return fmt.Errorf("campaign: nrh13: %w", err)
		}
	}
	return nil
}

// withNRH validates the base config at threshold nrh.
func (s Spec) withNRH(nrh float64) error {
	cfg := s.Base
	cfg.NRH = nrh
	return cfg.Validate()
}

func (s Spec) has(figure string) bool { return slices.Contains(s.Figures, figure) }

// cells is the number of jobs the (normalized) spec expands to — the
// product of its axes, counted the way the sweeps' expansions count them
// (TestPlan holds it to them) — as a float, so absurd axes saturate
// instead of wrapping.
func (s Spec) cells() float64 {
	axis := func(listed, dflt int) float64 {
		if listed == 0 {
			return float64(dflt)
		}
		return float64(listed)
	}
	mixes := float64(len(s.Mixes))
	profiles := axis(len(s.Profiles), len(profile.RepresentativeLabels()))
	backends := axis(len(s.Backends), 1)
	// One (defense, nRH, ±Svärd, mix) grid; a Fig. 12 module adds a
	// defense-free baseline per mix.
	grid := axis(len(s.Defenses), len(sim.DefenseNames)) * axis(len(s.NRHs), len(sim.DefaultNRHs())) * 2 * mixes
	var n float64
	if s.has(Fig12) {
		switch {
		case s.Population != nil:
			n += float64(s.Population.Size) * (mixes + grid)
		case s.Temporal != nil:
			n += float64(1+len(s.Temporal.Intervals)) * grid
		default:
			n += backends * profiles * (mixes + grid)
		}
	}
	if s.has(Fig13) {
		// Per backend and attacked defense: a baseline, NoSvärd, one Svärd per profile.
		n += backends * float64(len(trace.AttackTargets)) * (2 + profiles)
	}
	return n
}

// figure is one figure of a campaign: the sweep options that expand to
// its share of the plan's job list and fold that share's results, in job
// order, into the Outcome. Everything that walks a campaign iterates the
// figure list and never asks which kind of campaign it is. A figure is
// its options and nothing else, so a Plan stays a comparable value.
type figure interface {
	jobs() ([]sim.Job, error)
	fold(results []sim.Result, out *Outcome)
}

type (
	fig12Figure   struct{ opt sim.Fig12Options }
	fig13Figure   struct{ opt sim.Fig13Options }
	bandsFigure   struct{ opt sim.PopulationOptions }
	erosionFigure struct{ opt sim.ErosionOptions }
)

func (f fig12Figure) jobs() ([]sim.Job, error)          { return sim.Fig12Jobs(f.opt), nil }
func (f fig12Figure) fold(r []sim.Result, out *Outcome) { out.Fig12 = f.opt.Fold(r) }

func (f fig13Figure) jobs() ([]sim.Job, error)          { return sim.Fig13Jobs(f.opt) }
func (f fig13Figure) fold(r []sim.Result, out *Outcome) { out.Fig13 = f.opt.Fold(r) }

func (f bandsFigure) jobs() ([]sim.Job, error)          { return sim.PopulationJobs(f.opt) }
func (f bandsFigure) fold(r []sim.Result, out *Outcome) { out.Bands = f.opt.Fold(r) }

func (f erosionFigure) jobs() ([]sim.Job, error)          { return sim.ErosionJobs(f.opt) }
func (f erosionFigure) fold(r []sim.Result, out *Outcome) { out.Erosion = f.opt.Fold(r) }

// figures maps the (normalized, validated) spec to its ordered figure
// list: the Fig. 12 grid in exactly one of its three forms — point cells,
// population bands, or margin erosion — then Fig. 13.
func (s Spec) figures() []figure {
	var fs []figure
	if s.has(Fig12) {
		switch {
		case s.Population != nil:
			fs = append(fs, bandsFigure{sim.PopulationOptions{
				Base:       s.Base,
				Population: population.Ref{Seed: s.Population.Seed, Size: s.Population.Size},
				Mixes:      s.Mixes,
				NRHs:       s.NRHs,
				Defenses:   s.Defenses,
			}})
		case s.Temporal != nil:
			// A single Profiles entry overrides the base module label; more
			// are rejected by validate (erosion drifts one module's truth).
			base := s.Base
			if len(s.Profiles) == 1 {
				base.ModuleLabel = s.Profiles[0]
			}
			fs = append(fs, erosionFigure{sim.ErosionOptions{
				Base:      base,
				Process:   s.Temporal.Process,
				Intervals: s.Temporal.Intervals,
				Mixes:     s.Mixes,
				NRHs:      s.NRHs,
				Defenses:  s.Defenses,
			}})
		default:
			fs = append(fs, fig12Figure{sim.Fig12Options{
				Base:     s.Base,
				Mixes:    s.Mixes,
				NRHs:     s.NRHs,
				Defenses: s.Defenses,
				Profiles: s.Profiles,
				Backends: s.Backends,
			}})
		}
	}
	if s.has(Fig13) {
		fs = append(fs, fig13Figure{sim.Fig13Options{
			Base:     s.Base,
			NRH:      s.NRH13,
			Benign:   s.Benign,
			Profiles: s.Profiles,
			Backends: s.Backends,
		}})
	}
	return fs
}

// Plan is a campaign derived once. Every route that sizes or executes a
// campaign builds one and reads it; nothing downstream normalizes,
// validates, expands or fingerprints again.
type Plan struct {
	Spec        Spec      // normalized (svard-sweep -print-spec emits it)
	Fingerprint string    // hex SHA-256 of Spec's canonical JSON
	Jobs        []sim.Job // every figure's cells, figure after figure

	// parts are the figures in Jobs order, each with the number of jobs
	// it expanded to: RunPlan folds Jobs' results through them. Only
	// Spec.Plan sets them.
	parts []part
}

type part struct {
	figure
	n int
}

// Plan normalizes, validates, expands and fingerprints the spec, each once.
func (s Spec) Plan() (Plan, error) {
	s = s.Normalized()
	if err := s.validate(); err != nil {
		return Plan{}, err
	}
	var jobs []sim.Job
	var parts []part
	for _, f := range s.figures() {
		j, err := f.jobs()
		if err != nil {
			return Plan{}, err
		}
		jobs = append(jobs, j...)
		parts = append(parts, part{f, len(j)})
	}
	return Plan{Spec: s, Fingerprint: s.fingerprint(), Jobs: jobs, parts: parts}, nil
}

// check rejects a plan Spec.Plan did not build, or whose job list or
// fingerprint changed since: its figures could not fold the results, or
// its journal would be misnamed.
func (p Plan) check() error {
	n := 0
	for _, pt := range p.parts {
		n += pt.n
	}
	if len(p.parts) == 0 || n != len(p.Jobs) {
		return fmt.Errorf("campaign: plan lists %d jobs but its figures fold %d; build plans with Spec.Plan", len(p.Jobs), n)
	}
	if !cache.WellFormedKey(p.Fingerprint) { // the same shape: a hex SHA-256
		return fmt.Errorf("campaign: plan has a malformed fingerprint %q; build plans with Spec.Plan", p.Fingerprint)
	}
	return nil
}

// Validate reports the error Plan rejects the spec with, if any.
func (s Spec) Validate() error { _, err := s.Plan(); return err }

// Jobs returns the plan's flat job list, the expansion the engine executes.
func (s Spec) Jobs() ([]sim.Job, error) { p, err := s.Plan(); return p.Jobs, err }

// Fingerprint identifies the campaign for checkpointing: a hex SHA-256
// of the normalized spec's canonical JSON (of any spec, valid or not; a
// Plan carries the same value). Two invocations with the same knobs
// resume each other's journal; any changed knob is a different campaign
// (its jobs may still hit the shared result cache — content addressing
// is per cell, the fingerprint only scopes the journal).
func (s Spec) Fingerprint() string { return s.Normalized().fingerprint() }

// fingerprint hashes an already normalized spec.
func (s Spec) fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("campaign: fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Outcome is a completed campaign: the folded figure cells plus the
// run's accounting. It is also the wire form of a result: svard-served's
// result endpoint embeds it whole, so a figure added here reaches every
// route without a second field list.
type Outcome struct {
	Fig12 []sim.Fig12Cell `json:"fig12,omitempty"`
	Fig13 []sim.Fig13Cell `json:"fig13,omitempty"`

	// Bands carries the Monte Carlo confidence bands of a population
	// campaign (Spec.Population set), in place of Fig12 point cells.
	Bands []sim.BandCell `json:"bands,omitempty"`

	// Erosion carries the margin-erosion cells of a temporal campaign
	// (Spec.Temporal set), in place of Fig12 point cells.
	Erosion []sim.ErosionCell `json:"erosion,omitempty"`

	Total   int `json:"total"`   // simulation jobs in the campaign
	Resumed int `json:"resumed"` // cells an earlier run journaled and this run served

	// Computed counts the cells THIS campaign actually simulated: its
	// compute callback ran (exactly-once attribution — a cell another
	// concurrent campaign computed, or that any cache layer served, is
	// not counted here). Served is the rest: Total - Computed, on every
	// route. Record keeps all three, so Resumed is a subset of Served by
	// construction: a journaled cell the store lost and this run simulated
	// again is Computed, not Resumed.
	Computed int `json:"computed"`
	Served   int `json:"served"`

	// Stats is the shared store's lookup counters when the run
	// finished. The store may be shared with concurrent campaigns (the
	// svard-served scheduler runs several engines over one store), so
	// these are global totals, not this campaign's share — Computed and
	// Served carry the per-campaign attribution. The disk gauges are not
	// here: counting them walks the whole store (see cache.Store.Stats).
	Stats cache.Counters `json:"stats"`
}

// Engine executes campaigns. Fields are read-only during a run.
type Engine struct {
	Store   *cache.Store // result cache (required)
	Workers int          // max concurrent simulations (<= 0: GOMAXPROCS)

	// Sim and Slots are the engine's Cell: the injected executor a cache
	// miss falls back to (nil: the pooled simulator; tests inject failing
	// or counting runners) and the worker-slot channel simulations — not
	// lookups — are gated on (nil: ungated; the svard-served scheduler
	// shares one channel across every job's engine).
	Sim   sim.Runner
	Slots chan struct{}

	// Trace, when set, turns on the flight recorder: every cell gets a
	// per-run obs.Recorder, its phase spans (queue wait, cache lookup,
	// build, warmup, run, fold) and counters are collected into Trace,
	// and the cache outcome (computed vs served) is attributed per cell.
	// Results are bit-identical either way; the recorder observes, it
	// never steers.
	Trace *obs.Trace

	// Observe, when set, is called once per completed cell (cache hit or
	// fresh computation alike) with its config and store-derived key, from
	// worker goroutines. svard-sweep prints its progress line and the
	// campaign service streams per-cell events from it. It must not block
	// for long: it runs on the sweep's critical path.
	Observe func(cfg sim.Config, key string)
}

// RunCtx plans the spec and executes the plan; see RunPlan.
func (e *Engine) RunCtx(ctx context.Context, spec Spec) (*Outcome, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	return e.RunPlan(ctx, plan)
}

// RunPlan executes the campaign in one pass: the plan's whole job list
// goes through sim.RunJobs once, reusing every cached cell and journaling
// each completed job so an interrupted run can be resumed, and each
// figure then folds its share of the results. Figures do not wait for
// each other: the first Fig. 13 cell starts as soon as a worker is free
// after the last Fig. 12 cell started. On error (including an
// interruption injected through Sim), everything completed so far
// remains in the cache and the journal.
//
// Once ctx is done, no new simulation starts, cells already running
// finish (and are cached and journaled), and the call returns ctx's
// cause within one cell's latency. The journal stays intact, so the
// cancelled campaign resumes exactly like an interrupted one: run the
// same plan over the same store again and only the never-computed cells
// simulate, the journaled ones counting as resumed.
func (e *Engine) RunPlan(ctx context.Context, plan Plan) (*Outcome, error) {
	record, err := OpenRecord(e.Store, plan)
	if err != nil {
		return nil, err
	}
	defer record.Close()

	// The engine's share of a cell, around the one cell path: record and
	// Observe on success, under the store-derived key, and — with the flight
	// recorder on — a per-cell Recorder whose wait phase runs from the trace
	// anchor to the cell's start and whose spans and counters land in e.Trace.
	cell := Cell{Store: e.Store, Sim: e.Sim, Slots: e.Slots}
	runner := func(cfg sim.Config) (sim.Result, error) {
		var rec *obs.Recorder
		var start time.Time
		if e.Trace != nil {
			start = time.Now()
			rec = &obs.Recorder{}
			rec.Stamp(obs.PhaseWait, e.Trace.Start(), start)
		}
		res, key, ran, err := cell.Run(ctx, cfg, rec)
		if err == nil {
			record.Done(key, ran)
			if e.Observe != nil {
				e.Observe(cfg, key)
			}
		}
		if e.Trace != nil {
			outcome := "served"
			if ran {
				outcome = "computed"
			}
			c := obs.CellFromRecorder(CellLabel(cfg), key, outcome, rec, start, time.Now())
			if err != nil {
				c.Err = err.Error()
			}
			e.Trace.Add(c)
		}
		return res, err
	}

	results, err := sim.RunJobs(ctx, e.Workers, runner, plan.Jobs)
	if err != nil {
		return nil, err
	}
	return record.Outcome(results), nil
}
