// Chrome trace_event output: the campaign-level Trace collector, its
// JSON writer, and the reader/validator svard-trace and the CI trace
// check use. The format is the Trace Event Format's JSON object form
// ("traceEvents" + complete "X" events), so a whole campaign opens
// directly in chrome://tracing or Perfetto.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Cell is one sweep cell's flight record: identity, execution interval,
// per-phase spans, and the counter snapshot its Recorder accumulated.
type Cell struct {
	Label   string // human-readable cell label (defense, nRH, mix, ...)
	Key     string // content-addressed cache key (64 hex chars), if known
	Outcome string // "computed" or "served"
	Err     string // non-empty if the cell failed

	Start time.Time // execution start (after any queue wait)
	End   time.Time // execution end

	Phases   [NumPhases]PhaseSpan
	Counters Counters
}

// PhaseSpan is one phase's interval in a Cell (zero values: not run).
type PhaseSpan struct {
	Start time.Time
	End   time.Time
}

// Valid reports whether the span completed.
func (s PhaseSpan) Valid() bool {
	return !s.Start.IsZero() && !s.End.IsZero() && !s.End.Before(s.Start)
}

// Dur returns the span's duration, 0 when incomplete.
func (s PhaseSpan) Dur() time.Duration {
	if !s.Valid() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// CellFromRecorder assembles a Cell from a finished Recorder.
func CellFromRecorder(label, key, outcome string, rec *Recorder, start, end time.Time) Cell {
	c := Cell{Label: label, Key: key, Outcome: outcome, Start: start, End: end, Counters: rec.Counters}
	for p := Phase(0); int(p) < NumPhases; p++ {
		if s, e, ok := rec.Span(p); ok {
			c.Phases[p] = PhaseSpan{Start: s, End: e}
		}
	}
	return c
}

// DefaultTraceCells bounds how many per-cell records a Trace retains.
// Counter totals keep accumulating past the bound; only the span
// records are dropped (and counted in Dropped).
const DefaultTraceCells = 65536

// Trace collects per-cell flight records for one campaign and writes
// them as Chrome trace_event JSON. Safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	limit   int
	cells   []Cell
	dropped int
	totals  Counters
}

// NewTrace returns a collector anchored at time.Now() retaining up to
// DefaultTraceCells cell records.
func NewTrace() *Trace { return NewTraceLimit(DefaultTraceCells) }

// NewTraceLimit is NewTrace with an explicit retention bound
// (limit <= 0 means DefaultTraceCells).
func NewTraceLimit(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultTraceCells
	}
	return &Trace{start: time.Now(), limit: limit}
}

// Start returns the trace anchor: t=0 of the timeline, and the start
// of every cell's queue-wait phase.
func (t *Trace) Start() time.Time { return t.start }

// Add records one cell. Past the retention bound the span record is
// dropped but its counters still accumulate into Totals.
func (t *Trace) Add(c Cell) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.totals.Add(c.Counters)
	if len(t.cells) >= t.limit {
		t.dropped++
		return
	}
	t.cells = append(t.cells, c)
}

// Cells returns a snapshot of the retained cell records.
func (t *Trace) Cells() []Cell {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Cell, len(t.cells))
	copy(out, t.cells)
	return out
}

// Len returns the number of retained cell records.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cells)
}

// Dropped returns how many cells exceeded the retention bound.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Totals returns the counter sum over every added cell (including
// dropped ones).
func (t *Trace) Totals() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

// Event is one trace_event record. Only the fields svärd emits are
// modeled; unknown fields are ignored on read.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds from trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// File is the JSON object form of the Trace Event Format.
type File struct {
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
	TraceEvents     []Event `json:"traceEvents"`
}

// usSince converts an absolute time to microseconds from the anchor.
func usSince(anchor, t time.Time) float64 {
	return float64(t.Sub(anchor)) / float64(time.Microsecond)
}

// build renders the retained cells as trace events. Cells are packed
// onto worker lanes (tids) by greedy interval partitioning over their
// execution intervals, reconstructing the worker occupancy picture
// without the runner having to thread worker IDs through.
func (t *Trace) build() File {
	t.mu.Lock()
	cells := make([]Cell, len(t.cells))
	copy(cells, t.cells)
	anchor := t.start
	dropped := t.dropped
	t.mu.Unlock()

	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cells[order[a]].Start.Before(cells[order[b]].Start)
	})

	f := File{DisplayTimeUnit: "ms"}
	f.TraceEvents = append(f.TraceEvents, Event{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "svard campaign"},
	})

	var laneEnd []time.Time // last occupied instant per lane
	lane := func(c Cell) int {
		for i, end := range laneEnd {
			if !c.Start.Before(end) {
				laneEnd[i] = c.End
				return i
			}
		}
		laneEnd = append(laneEnd, c.End)
		return len(laneEnd) - 1
	}

	for _, i := range order {
		c := cells[i]
		if c.End.Before(c.Start) {
			c.End = c.Start
		}
		tid := lane(c)
		args := map[string]any{
			"outcome":  c.Outcome,
			"counters": c.Counters.Map(),
		}
		if c.Key != "" {
			args["key"] = c.Key
		}
		if c.Err != "" {
			args["err"] = c.Err
		}
		// The queue wait precedes the execution interval, so it is
		// reported as a duration arg rather than a nested span — nested
		// spans must sit inside the cell event.
		if w := c.Phases[PhaseWait]; w.Valid() {
			args["wait_us"] = float64(w.Dur()) / float64(time.Microsecond)
		}
		f.TraceEvents = append(f.TraceEvents, Event{
			Name: c.Label, Cat: "cell", Ph: "X", Pid: 1, Tid: tid,
			Ts:   usSince(anchor, c.Start),
			Dur:  usSince(c.Start, c.End),
			Args: args,
		})
		for p := PhaseLookup; int(p) < NumPhases; p++ {
			s := c.Phases[p]
			if !s.Valid() {
				continue
			}
			// Clamp into the cell interval so spans always nest (phase
			// stamps and the cell end are taken a few instructions apart).
			start, end := s.Start, s.End
			if start.Before(c.Start) {
				start = c.Start
			}
			if end.After(c.End) {
				end = c.End
			}
			if end.Before(start) {
				continue
			}
			f.TraceEvents = append(f.TraceEvents, Event{
				Name: p.String(), Cat: "phase", Ph: "X", Pid: 1, Tid: tid,
				Ts:  usSince(anchor, start),
				Dur: usSince(start, end),
			})
		}
	}
	for i := range laneEnd {
		f.TraceEvents = append(f.TraceEvents, Event{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("worker lane %d", i)},
		})
	}
	if dropped > 0 {
		f.TraceEvents = append(f.TraceEvents, Event{
			Name: "cells dropped (retention bound)", Cat: "cell", Ph: "I", Pid: 1,
			Args: map[string]any{"dropped": dropped},
		})
	}
	return f
}

// Write writes the trace as Chrome trace_event JSON.
func (t *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.build())
}

// WriteFile writes the trace to path (0644).
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a trace_event JSON stream.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: parse trace: %w", err)
	}
	return &f, nil
}

// ReadFile parses a trace_event JSON file.
func ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Validate checks structural invariants: every complete event has a
// non-negative duration, and on each lane the "X" events strictly nest
// (a span is either disjoint from or fully contained in any other on
// its lane), with every phase span inside a cell span.
func (f *File) Validate() error {
	byLane := map[int][]Event{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Dur < 0 {
			return fmt.Errorf("obs: event %q has negative duration %v", e.Name, e.Dur)
		}
		byLane[e.Tid] = append(byLane[e.Tid], e)
	}
	const eps = 1e-6 // one picosecond in µs: float round-off guard
	for tid, evs := range byLane {
		// Parent-before-child order: by start, longest first on ties.
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].Ts != evs[b].Ts {
				return evs[a].Ts < evs[b].Ts
			}
			return evs[a].Dur > evs[b].Dur
		})
		var stack []Event
		for _, e := range evs {
			for len(stack) > 0 && e.Ts >= stack[len(stack)-1].Ts+stack[len(stack)-1].Dur-eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.Ts+e.Dur > top.Ts+top.Dur+eps {
					return fmt.Errorf("obs: lane %d: span %q [%v, %v] overlaps %q [%v, %v] without nesting",
						tid, e.Name, e.Ts, e.Ts+e.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			if e.Cat == "phase" {
				inCell := false
				for _, p := range stack {
					if p.Cat == "cell" {
						inCell = true
						break
					}
				}
				if !inCell {
					return fmt.Errorf("obs: lane %d: phase span %q at %v is outside any cell span", tid, e.Name, e.Ts)
				}
			}
			stack = append(stack, e)
		}
	}
	return nil
}

// CellSummary is the inspector's view of one cell event: identity,
// timing, the wait duration, phase durations, and counters — all in
// microseconds, as parsed back from the JSON.
type CellSummary struct {
	Label   string
	Key     string
	Outcome string
	Err     string
	Tid     int
	TsUs    float64
	DurUs   float64
	WaitUs  float64
	Phases  map[string]float64 // phase name -> duration µs
	Counter map[string]uint64
}

// CellSummaries reconstructs per-cell views from the parsed events,
// attributing phase spans to the cell event that contains them on the
// same lane. Cells come back in timeline order.
func (f *File) CellSummaries() []CellSummary {
	type laneCell struct {
		idx     int
		ts, dur float64
	}
	var out []CellSummary
	lanes := map[int][]laneCell{}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Cat != "cell" {
			continue
		}
		cs := CellSummary{
			Label:  e.Name,
			Tid:    e.Tid,
			TsUs:   e.Ts,
			DurUs:  e.Dur,
			Phases: map[string]float64{},
		}
		if v, ok := e.Args["key"].(string); ok {
			cs.Key = v
		}
		if v, ok := e.Args["outcome"].(string); ok {
			cs.Outcome = v
		}
		if v, ok := e.Args["err"].(string); ok {
			cs.Err = v
		}
		if v, ok := e.Args["wait_us"].(float64); ok {
			cs.WaitUs = v
		}
		if m, ok := e.Args["counters"].(map[string]any); ok {
			cs.Counter = make(map[string]uint64, len(m))
			for k, v := range m {
				if n, ok := v.(float64); ok && n >= 0 {
					cs.Counter[k] = uint64(n)
				}
			}
		}
		lanes[e.Tid] = append(lanes[e.Tid], laneCell{idx: len(out), ts: e.Ts, dur: e.Dur})
		out = append(out, cs)
	}
	// Per lane, cells by start, each with the furthest reach (end plus the
	// round-off guard) of any cell starting no later. Walking back from the
	// last cell that starts at or before a phase can stop once nothing
	// earlier reaches the phase's end, so on a lane of disjoint cells a
	// phase costs a binary search, not a scan of the lane.
	reach := map[int][]float64{}
	for tid, lcs := range lanes {
		sort.SliceStable(lcs, func(a, b int) bool { return lcs[a].ts < lcs[b].ts })
		r := make([]float64, len(lcs))
		for k, lc := range lcs {
			r[k] = lc.ts + lc.dur + 1e-6
			if k > 0 && r[k-1] > r[k] {
				r[k] = r[k-1]
			}
		}
		reach[tid] = r
	}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Cat != "phase" {
			continue
		}
		// Attribute to the tightest containing cell on the lane, the first
		// listed among equally tight ones.
		lcs, r := lanes[e.Tid], reach[e.Tid]
		end := e.Ts + e.Dur
		best := -1
		bestDur := 0.0
		k := sort.Search(len(lcs), func(k int) bool { return e.Ts < lcs[k].ts-1e-6 }) - 1
		for ; k >= 0 && r[k] >= end; k-- {
			lc := lcs[k]
			if end <= lc.ts+lc.dur+1e-6 && (best == -1 || lc.dur < bestDur || lc.dur == bestDur && lc.idx < best) {
				best, bestDur = lc.idx, lc.dur
			}
		}
		if best >= 0 {
			out[best].Phases[e.Name] += e.Dur
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].TsUs < out[b].TsUs })
	return out
}
