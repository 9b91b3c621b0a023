// Package obs is svärd's flight-recorder telemetry layer: allocation-free
// hot-path counters, per-cell phase spans, and Chrome trace_event output
// (trace.go). It depends only on the standard library, and nothing in it
// runs unless a caller attaches a Recorder or a Trace — the disabled path
// is a nil check.
//
// The layer has three pieces:
//
//   - Counters: plain uint64 fields incremented by the engine loops and
//     the memory controller. The hot-path counters (ControllerCounters,
//     EngineCounters) live inside the components themselves — embedded by
//     value, zeroed by each component's Reset — so recording adds no
//     branches, no interface calls, and no allocations to the hot loops.
//   - Recorder: a per-run arena the sim folds counters and phase
//     timestamps into. All methods are nil-receiver safe, so callers
//     stamp phases unconditionally.
//   - Trace (trace.go): a campaign-level collector of per-cell Recorder
//     snapshots, serialized as Chrome trace_event JSON.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase indexes the per-cell span timeline: the lifecycle stations one
// sweep cell passes through, in order.
type Phase int

const (
	// PhaseWait is the queue wait: campaign start to execution start.
	// It is reported as a duration on the cell (args.wait_us), not as a
	// nested span — it happens before the cell's execution interval.
	PhaseWait Phase = iota
	// PhaseLookup is the result-cache lookup (hit: the whole cell).
	PhaseLookup
	// PhaseBuild is module calibration plus machine construction.
	PhaseBuild
	// PhaseWarmup is the drive loop until every core has entered its
	// measurement region.
	PhaseWarmup
	// PhaseRun is the measurement region to completion (or truncation).
	PhaseRun
	// PhaseFold is folding machine state into the Result.
	PhaseFold

	NumPhases int = iota
)

var phaseNames = [NumPhases]string{"wait", "lookup", "build", "warmup", "run", "fold"}

func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// EngineCounters are the driver-loop counters, embedded by value in the
// sim's per-run machine (freshly zeroed every run by construction).
type EngineCounters struct {
	Ticks         uint64 // cycles the driver loop actually ticked
	ActiveTicks   uint64 // ticked cycles where some component made progress (skip engine)
	SkipJumps     uint64 // idle gaps the event engine jumped over
	SkippedCycles uint64 // cycles elided by those jumps

	// NextEvent bound attribution: which component's bound set each
	// jump target (ties resolve tracker > controller > core, matching
	// the engine's scan order; horizon = quiescent to MaxCycles).
	BoundTracker    uint64
	BoundController uint64
	BoundCore       uint64
	BoundHorizon    uint64

	EpochAdvances uint64 // temporal epoch edges crossed by the live view
	LiveDraws     uint64 // live thresholds drawn from the temporal process (comparisons its floor could not settle)
}

// Add accumulates o into c.
func (c *EngineCounters) Add(o EngineCounters) {
	c.Ticks += o.Ticks
	c.ActiveTicks += o.ActiveTicks
	c.SkipJumps += o.SkipJumps
	c.SkippedCycles += o.SkippedCycles
	c.BoundTracker += o.BoundTracker
	c.BoundController += o.BoundController
	c.BoundCore += o.BoundCore
	c.BoundHorizon += o.BoundHorizon
	c.EpochAdvances += o.EpochAdvances
	c.LiveDraws += o.LiveDraws
}

// ControllerCounters are the memory-controller counters, embedded by
// value in memctrl.Controller and zeroed by its Reset exactly like its
// Stats — so pooled arena reuse starts every run from zero.
type ControllerCounters struct {
	ScanPasses  uint64 // FR-FCFS scheduler passes over a non-empty queue
	ScanEntries uint64 // queue entries the passes' first-match walks examined (none when nothing was ready)

	// Wake-up bound evaluations (memctrl.Controller.NextEvent). Scans over
	// calls is the share the per-bank index alone could not answer
	// because a defense throttle was still pending on some queued request.
	NextEventCalls uint64 // full evaluations (cached answers not counted)
	NextEventScans uint64 // evaluations that walked the queues for some bank

	RefreshStalls  uint64 // precharges forced to unblock a due refresh
	ThrottleStalls uint64 // issue slots lost to a defense throttle

	// Mitigation directives executed, by kind.
	DirRefreshVictim  uint64 // neighbor-refresh directives carried out
	DirRefreshDeduped uint64 // neighbor refreshes elided by the in-flight victim set
	DirSwapRows       uint64 // row swap/migration directives
	DirExtraMem       uint64 // extra memory traffic directives (tracker metadata)
}

// Add accumulates o into c.
func (c *ControllerCounters) Add(o ControllerCounters) {
	c.ScanPasses += o.ScanPasses
	c.ScanEntries += o.ScanEntries
	c.NextEventCalls += o.NextEventCalls
	c.NextEventScans += o.NextEventScans
	c.RefreshStalls += o.RefreshStalls
	c.ThrottleStalls += o.ThrottleStalls
	c.DirRefreshVictim += o.DirRefreshVictim
	c.DirRefreshDeduped += o.DirRefreshDeduped
	c.DirSwapRows += o.DirSwapRows
	c.DirExtraMem += o.DirExtraMem
}

// Counters is the full per-cell counter set: the hot-path engine and
// controller counters plus the campaign-level cache outcome. It is what
// a Recorder accumulates and a Trace totals.
type Counters struct {
	EngineCounters
	ControllerCounters

	// Cache outcome, attributed by the campaign engine: a cell either
	// computed (its simulation ran) or was served from the result cache
	// (memory, disk, or deduplicated onto a concurrent computation).
	CellsComputed uint64
	CellsServed   uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.EngineCounters.Add(o.EngineCounters)
	c.ControllerCounters.Add(o.ControllerCounters)
	c.CellsComputed += o.CellsComputed
	c.CellsServed += o.CellsServed
}

// CounterInfo names one counter for rendering: the canonical snake_case
// name used in trace JSON and /metrics, and a one-line description.
type CounterInfo struct {
	Name string
	Help string
	Get  func(*Counters) uint64
}

// Glossary lists every counter in canonical order. svard-trace renders
// it, /metrics derives per-job rollups from it, and EXPERIMENTS.md's
// counter glossary mirrors it.
func Glossary() []CounterInfo {
	return []CounterInfo{
		{"sim_ticks", "cycles the driver loop actually ticked", func(c *Counters) uint64 { return c.Ticks }},
		{"sim_active_ticks", "ticked cycles where some component made progress (skip engine)", func(c *Counters) uint64 { return c.ActiveTicks }},
		{"skip_jumps", "idle gaps the event engine jumped over", func(c *Counters) uint64 { return c.SkipJumps }},
		{"skipped_cycles", "cycles elided by NextEvent jumps", func(c *Counters) uint64 { return c.SkippedCycles }},
		{"bound_tracker", "jumps bounded by the security tracker's next epoch edge", func(c *Counters) uint64 { return c.BoundTracker }},
		{"bound_controller", "jumps bounded by a memory controller's next ready time", func(c *Counters) uint64 { return c.BoundController }},
		{"bound_core", "jumps bounded by a core's next ready time", func(c *Counters) uint64 { return c.BoundCore }},
		{"bound_horizon", "jumps truncated at the MaxCycles horizon", func(c *Counters) uint64 { return c.BoundHorizon }},
		{"epoch_advances", "temporal epoch edges crossed by the live threshold view", func(c *Counters) uint64 { return c.EpochAdvances }},
		{"live_draws", "live thresholds drawn from the temporal process: tracker comparisons the per-epoch floor could not settle (near the tracker's call count once the floor has decayed)", func(c *Counters) uint64 { return c.LiveDraws }},
		{"scan_passes", "FR-FCFS scheduler passes over a non-empty queue", func(c *Counters) uint64 { return c.ScanPasses }},
		{"scan_entries", "queue entries examined by the scheduler's first-match walks: the position of each pass's pick, nothing for a pass that found no bank ready", func(c *Counters) uint64 { return c.ScanEntries }},
		{"next_event_calls", "controller wake-up bounds evaluated in full (cached answers not counted)", func(c *Counters) uint64 { return c.NextEventCalls }},
		{"next_event_scans", "wake-up bound evaluations that walked the queues for some bank because a throttle retry was pending on it", func(c *Counters) uint64 { return c.NextEventScans }},
		{"refresh_stalls", "precharges forced to unblock a due refresh", func(c *Counters) uint64 { return c.RefreshStalls }},
		{"throttle_stalls", "issue slots lost to a defense throttle", func(c *Counters) uint64 { return c.ThrottleStalls }},
		{"dir_refresh_victim", "neighbor-refresh directives carried out", func(c *Counters) uint64 { return c.DirRefreshVictim }},
		{"dir_refresh_deduped", "neighbor refreshes elided by the in-flight victim set", func(c *Counters) uint64 { return c.DirRefreshDeduped }},
		{"dir_swap_rows", "row swap/migration directives executed", func(c *Counters) uint64 { return c.DirSwapRows }},
		{"dir_extra_mem", "extra-memory-traffic directives executed", func(c *Counters) uint64 { return c.DirExtraMem }},
		{"cells_computed", "cells whose simulation actually ran", func(c *Counters) uint64 { return c.CellsComputed }},
		{"cells_served", "cells served from the result cache", func(c *Counters) uint64 { return c.CellsServed }},
	}
}

// Map renders the counters under their canonical names.
func (c *Counters) Map() map[string]uint64 {
	m := make(map[string]uint64, len(Glossary()))
	for _, info := range Glossary() {
		m[info.Name] = info.Get(c)
	}
	return m
}

// span is one phase's wall-clock interval.
type span struct {
	start time.Time
	end   time.Time
}

// Recorder is the per-run telemetry arena: the counter set plus one
// wall-clock span per phase. Every method is nil-receiver safe — the
// disabled path is exactly one nil check — and none of them allocates,
// so a Recorder can ride along the allocation-flat pooled sweep.
//
// A Recorder is not safe for concurrent use; attach one per running
// cell (the campaign engine does) or serialize access (the serial
// benchmark shares one).
type Recorder struct {
	Counters Counters
	phases   [NumPhases]span
}

// Reset zeroes the recorder for reuse.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	*r = Recorder{}
}

// Begin stamps the start of phase p at time.Now().
func (r *Recorder) Begin(p Phase) {
	if r == nil {
		return
	}
	r.phases[p].start = time.Now()
}

// End stamps the end of phase p at time.Now().
func (r *Recorder) End(p Phase) {
	if r == nil {
		return
	}
	r.phases[p].end = time.Now()
}

// Stamp records phase p's span explicitly.
func (r *Recorder) Stamp(p Phase, start, end time.Time) {
	if r == nil {
		return
	}
	r.phases[p] = span{start: start, end: end}
}

// Span returns phase p's interval; ok is false if the phase never
// completed (either stamp missing).
func (r *Recorder) Span(p Phase) (start, end time.Time, ok bool) {
	if r == nil {
		return time.Time{}, time.Time{}, false
	}
	s := r.phases[p]
	return s.start, s.end, !s.start.IsZero() && !s.end.IsZero() && !s.end.Before(s.start)
}

// Dur returns phase p's duration, 0 if it never completed.
func (r *Recorder) Dur(p Phase) time.Duration {
	start, end, ok := r.Span(p)
	if !ok {
		return 0
	}
	return end.Sub(start)
}

// profilingLabels gates the pprof cell labels the exec pool attaches
// around per-cell execution. Off by default: pprof.Do allocates per
// call, which would break the allocation-flat sweep budget, so only
// the profiling entry points (svard-sweep -cpuprofile, svard-served
// -pprof) switch it on.
var profilingLabels atomic.Bool

// EnableProfilingLabels turns on per-cell pprof labels process-wide.
func EnableProfilingLabels() { profilingLabels.Store(true) }

// ProfilingLabelsEnabled reports whether per-cell pprof labels are on.
func ProfilingLabelsEnabled() bool { return profilingLabels.Load() }
