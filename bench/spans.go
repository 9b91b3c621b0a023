package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/obs"
	"svard/internal/sim"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0: none); every span of one pass carries that pass span's ID
// in Pass. IDs start at 1 and index tracer.spans at ID-1.
type span struct {
	ID, Parent, Pass int
	Name, Route      string
	Start, End       time.Time
	Temporal         bool // a sim.cell that ran under a temporal process
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// cellTotals are the counts taken at the sim.cell boundary of one route.
type cellTotals struct {
	counters obs.Counters
	cycles   uint64 // summed Result.Cycles: simulated time
}

// tracer is the benchmark's own in-memory span recorder. Spans are placed
// from this package's files around each call into a layer and written
// once when the run ends. A nil *tracer records nothing: every method is
// nil-receiver safe, so routes call them unconditionally and the untraced
// run pays one nil check.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	totals map[string]*cellTotals // by route

	route string       // route being measured; routes run one after another
	pass  atomic.Int64 // newest pass span: the parent of sim.cell spans
}

func newTracer() *tracer { return &tracer{totals: map[string]*cellTotals{}} }

// open starts a span and returns its ID for close and for children.
func (t *tracer) open(name string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openLocked(name, parent, start, time.Time{})
}

func (t *tracer) openLocked(name string, parent int, start, end time.Time) int {
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Route: t.route, Start: start, End: end}
	s.Pass = s.ID
	if parent > 0 {
		s.Pass = t.spans[parent-1].Pass
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// openPass starts a pass span and makes it the parent of the sim.cell
// spans recorded until the next pass opens. Cells run on worker
// goroutines (and behind HTTP), so they find their pass here instead of
// through an argument; the workloads that simulate run one pass at a time.
func (t *tracer) openPass(start time.Time) int {
	id := t.open("pass", 0, start)
	if t != nil {
		t.pass.Store(int64(id))
	}
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func() error) error {
	id := t.open(name, parent, time.Now())
	err := fn()
	t.close(id, time.Now())
	return err
}

// recordedRunner is a cell executor that stamps an obs.Recorder:
// sim.RunRecorded and sim.PooledRunRecorded.
type recordedRunner func(sim.Config, *obs.Recorder) (sim.Result, error)

// phaseSpans maps the simulator's recorder stamps to child span names.
var phaseSpans = []struct {
	phase obs.Phase
	name  string
}{
	{obs.PhaseBuild, "sim.build"},
	{obs.PhaseWarmup, "sim.warmup"},
	{obs.PhaseRun, "sim.run"},
	{obs.PhaseFold, "sim.fold"},
}

// runner wraps one of the layers' public injection points
// (Fig12Options.Runner, ErosionOptions.Runner, campaign.Engine.Sim,
// server.Config.Sim): each cell becomes a sim.cell span under the current
// pass, with sim.build/warmup/run/fold children taken from the cell's
// recorder stamps, and its counters fold into the route's totals. A nil
// tracer returns a nil Runner — the layer's own default, so the untraced
// run executes exactly the code a user runs.
func (t *tracer) runner(base recordedRunner) sim.Runner {
	if t == nil {
		return nil
	}
	return func(cfg sim.Config) (sim.Result, error) {
		var rec obs.Recorder
		start := time.Now()
		res, err := base(cfg, &rec)
		end := time.Now()

		t.mu.Lock()
		defer t.mu.Unlock()
		cell := t.openLocked("sim.cell", int(t.pass.Load()), start, end)
		t.spans[cell-1].Temporal = cfg.Temporal != nil
		for _, p := range phaseSpans {
			if s, e, ok := rec.Span(p.phase); ok {
				t.openLocked(p.name, cell, s, e)
			}
		}
		tot := t.totals[t.route]
		if tot == nil {
			tot = &cellTotals{}
			t.totals[t.route] = tot
		}
		tot.counters.Add(rec.Counters)
		tot.cycles += res.Cycles
		return res, err
	}
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of that interval its child spans cover. Children may overlap
// each other (cells on parallel workers) and may stick out of the parent
// (clock skew between goroutines): the covered part is the union of the
// children's intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from.Before(edge) {
				from = edge
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				edge = to
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// filter returns the spans of one route with one name.
func filter(spans []span, route, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Route == route && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeChrome writes the spans as Chrome trace_event JSON (the object
// form internal/obs reads back, so svard-trace and Perfetto open it).
// Spans that run concurrently — passes of two clients, cells on parallel
// workers — are spread over lanes so that every lane nests strictly;
// everything else stays on its parent's lane.
func writeChrome(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start.Before(spans[order[b]].Start) })
	origin := spans[order[0]].Start

	lane := make(map[int]int, len(spans)) // span ID -> lane
	var laneEnd []time.Time               // per lane, end of its newest top-level span
	for _, i := range order {
		s := spans[i]
		if s.Parent > 0 && s.Name != "sim.cell" {
			lane[s.ID] = lane[s.Parent]
			continue
		}
		l := 0
		for l < len(laneEnd) && s.Start.Before(laneEnd[l]) {
			l++
		}
		if l == len(laneEnd) {
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[l] = s.End
		lane[s.ID] = l
	}

	f := obs.File{DisplayTimeUnit: "ms"}
	for _, i := range order {
		s := spans[i]
		f.TraceEvents = append(f.TraceEvents, obs.Event{
			Name: s.Name, Cat: s.Route, Ph: "X",
			Ts: us(s.Start.Sub(origin)), Dur: us(s.dur()),
			Pid: 1, Tid: lane[s.ID],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "pass": s.Pass},
		})
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
