package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// summariesByScan is CellSummaries as it was first written: every phase
// span scans every cell of its lane for the tightest one containing it.
// Quadratic in a lane's length (15 s for a trace at DefaultTraceCells on
// two lanes) and obviously right, so it is the reference the lane walk
// is held to (TestCellSummariesMatchScan, FuzzTraceRead).
func summariesByScan(f *File) []CellSummary {
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
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Cat != "phase" {
			continue
		}
		best := -1
		bestDur := 0.0
		for _, lc := range lanes[e.Tid] {
			if e.Ts >= lc.ts-1e-6 && e.Ts+e.Dur <= lc.ts+lc.dur+1e-6 {
				if best == -1 || lc.dur < bestDur {
					best, bestDur = lc.idx, lc.dur
				}
			}
		}
		if best >= 0 {
			out[best].Phases[e.Name] += e.Dur
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].TsUs < out[b].TsUs })
	return out
}

// FuzzTraceRead: svard-trace reads files a run wrote, possibly cut short
// by a crash or edited by hand, so whatever the bytes, Read, Validate and
// CellSummaries each return a value or an error — never a panic or a
// hang — and the summaries attribute phases as the lane scan does.
func FuzzTraceRead(f *testing.F) {
	tr := NewTrace()
	tr.Add(makeCell(tr, "cell A", 10, 30, Counters{EngineCounters: EngineCounters{Ticks: 100}}))
	tr.Add(makeCell(tr, "cell B", 20, 40, Counters{}))
	tr.Add(makeCell(tr, "cell C", 35, 50, Counters{}))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte(`{"traceEvents":[{"name":"a","cat":"cell","ph":"X","ts":0,"dur":1e308,"tid":0},` +
		`{"name":"run","cat":"phase","ph":"X","ts":1e308,"dur":1e308,"tid":0},` +
		`{"name":"b","cat":"cell","ph":"X","ts":-1e308,"dur":-0,"tid":0}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","cat":"cell","args":{"counters":{"x":-1,"y":1e300,"z":"7"},"key":7,"wait_us":"1"}}]}`))
	f.Add([]byte(`{"traceEvents":null}`))
	f.Add([]byte("null"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		file.Validate()
		got, want := file.CellSummaries(), summariesByScan(file)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("summaries differ from the lane scan:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// TestCellSummariesMatchScan: on seeded random lanes — disjoint, nested,
// overlapping, ties in start and length, ends on the round-off guard,
// phases inside, across and outside cells — the lane walk attributes
// every phase as the scan does.
func TestCellSummariesMatchScan(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	eps := []float64{0, 0, 0, 1e-6, -1e-6, 2e-6} // on and around the round-off guard
	for i := 0; i < 2000; i++ {
		f := &File{}
		for j := r.Intn(40); j >= 0; j-- {
			cat := "cell"
			if r.Intn(2) == 0 {
				cat = "phase"
			}
			f.TraceEvents = append(f.TraceEvents, Event{
				Name: fmt.Sprint("e", r.Intn(3)), Cat: cat, Ph: "X", Tid: r.Intn(3),
				Ts: float64(r.Intn(20)) + eps[r.Intn(len(eps))], Dur: float64(r.Intn(8)) + eps[r.Intn(len(eps))],
			})
		}
		if got, want := f.CellSummaries(), summariesByScan(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("summaries of %+v differ from the lane scan:\ngot  %+v\nwant %+v", f.TraceEvents, got, want)
		}
	}
}

// TestCellSummariesScale: a trace at the retention bound on one lane (a
// one-worker campaign) — 2^16 cells, five phases each — took the lane
// scan about half a minute; the walk takes a fraction of a second.
func TestCellSummariesScale(t *testing.T) {
	f := &File{}
	for i := 0; i < DefaultTraceCells; i++ {
		ts := float64(i) * 100
		f.TraceEvents = append(f.TraceEvents, Event{Name: "cell", Cat: "cell", Ph: "X", Ts: ts, Dur: 90})
		for p := 0; p < 5; p++ {
			f.TraceEvents = append(f.TraceEvents, Event{Name: "run", Cat: "phase", Ph: "X", Ts: ts + float64(p)*10, Dur: 10})
		}
	}
	start := time.Now()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	sums := f.CellSummaries()
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("validating and summarising %d cells took %v", len(sums), took)
	}
	if len(sums) != DefaultTraceCells || sums[DefaultTraceCells-1].Phases["run"] != 50 {
		t.Errorf("%d summaries, the last with phases %v", len(sums), sums[len(sums)-1].Phases)
	}
}
