package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"svard/internal/obs"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

// Self time is a span's duration minus the union of its children's
// intervals: overlapping children count once, nested grandchildren belong
// to their own parent, and a child sticking out of the parent is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "sim.cell", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Name: "sim.cell", Start: at(30), End: at(70)},  // overlaps 2
		{ID: 4, Parent: 1, Name: "sim.cell", Start: at(35), End: at(45)},  // inside 2 and 3
		{ID: 5, Parent: 1, Name: "sim.cell", Start: at(90), End: at(120)}, // sticks out
		{ID: 6, Parent: 2, Name: "sim.warmup", Start: at(10), End: at(20)},
		{ID: 7, Parent: 2, Name: "sim.run", Start: at(20), End: at(48)},
		{ID: 8, Name: "pass", Start: at(200), End: at(210)}, // no children
	}
	want := map[int]int{
		1: 100 - (70 - 10) - (100 - 90), // union [10,70] plus the clipped [90,100]
		2: 40 - 10 - 28,
		3: 40, 4: 10, 5: 30, 6: 10, 7: 28, 8: 10,
	}
	got := selfTimes(spans)
	for i, s := range spans {
		if w := time.Duration(want[s.ID]) * time.Millisecond; got[i] != w {
			t.Errorf("span %d (%s): self time %v, want %v", s.ID, s.Name, got[i], w)
		}
	}
}

// The tracer links children to their pass, and its Chrome output nests
// strictly on every lane even when cells overlap.
func TestTracerWritesNestedLanes(t *testing.T) {
	tr := newTracer()
	tr.route = "r"
	p := tr.openPass(at(0))
	tr.mu.Lock()
	a := tr.openLocked("sim.cell", p, at(1), at(9))
	tr.openLocked("sim.run", a, at(2), at(8))
	tr.openLocked("sim.cell", p, at(3), at(7)) // concurrent with a
	tr.mu.Unlock()
	tr.close(p, at(10))
	for _, s := range tr.spans {
		if s.Pass != p {
			t.Errorf("span %d (%s) carries pass %d, want %d", s.ID, s.Name, s.Pass, p)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	f, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != len(tr.spans) {
		t.Fatalf("%d events for %d spans", len(f.TraceEvents), len(tr.spans))
	}
}

// A nil tracer is the untraced run: no spans, and a nil Runner so every
// layer keeps its default executor.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	if id := tr.openPass(time.Now()); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	tr.close(0, time.Now())
	if tr.runner(nil) != nil {
		t.Error("nil tracer returned a Runner")
	}
}

// The percentile rule: beside the median, the highest percentile with at
// least ten samples beyond it.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail bool
	}{
		{16, 0, false}, {99, 0, false}, // fewer than 100 samples: median only
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := topPercentile(c.n)
		if ok != c.tail || p != c.p {
			t.Errorf("n=%d: got p%v (%v), want p%v (%v)", c.n, p, ok, c.p, c.tail)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4): the
// driver computes the spread it gates on with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func validContract() *contract {
	b := 0.1
	return &contract{
		RunSeconds: 10,
		Workloads:  []workloadSpec{{"a", "first"}, {"b", "second"}},
		EndToEnd: []metricSpec{
			{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: &b},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: &b},
		},
		PerLayer: []metricSpec{{Name: "rng.uint64_ns", Unit: "ns", Better: "lower"}},
	}
}

// Names stay inside [A-Za-z0-9_.-], at most 16 end-to-end and 128
// per-layer metrics, bounds at most a quarter, setup_s present.
func TestContractLimits(t *testing.T) {
	if err := validContract().validate(); err != nil {
		t.Fatalf("valid contract refused: %v", err)
	}
	fill := func(n int, bound *float64) []metricSpec {
		out := make([]metricSpec, n)
		for i := range out {
			out[i] = metricSpec{Name: fmt.Sprintf("m%d", i), Unit: "ms", Better: "lower", Bound: bound}
		}
		return out
	}
	b, big := 0.1, 0.26
	for name, mutate := range map[string]func(*contract){
		"space in a metric name":   func(c *contract) { c.PerLayer[0].Name = "rng uint64" },
		"slash in a workload name": func(c *contract) { c.Workloads[0].Name = "fig12/inproc" },
		"name starting with a dot": func(c *contract) { c.PerLayer[0].Name = ".rng" },
		"65-character name":        func(c *contract) { c.PerLayer[0].Name = strings.Repeat("x", 65) },
		"name used twice":          func(c *contract) { c.PerLayer[0].Name = "cells_per_s" },
		"17 end-to-end metrics":    func(c *contract) { c.EndToEnd = append(fill(16, &b), c.EndToEnd[1]) },
		"129 per-layer metrics":    func(c *contract) { c.PerLayer = fill(129, nil) },
		"bound above a quarter":    func(c *contract) { c.EndToEnd[0].Bound = &big },
		"end-to-end without bound": func(c *contract) { c.EndToEnd[0].Bound = nil },
		"per-layer with a bound":   func(c *contract) { c.PerLayer[0].Bound = &b },
		"no setup_s":               func(c *contract) { c.EndToEnd = c.EndToEnd[:1] },
		"unit with a space":        func(c *contract) { c.PerLayer[0].Unit = "per s" },
		"direction":                func(c *contract) { c.PerLayer[0].Better = "faster" },
		"one workload":             func(c *contract) { c.Workloads = c.Workloads[:1] },
		"61 run seconds":           func(c *contract) { c.RunSeconds = 61 },
	} {
		c := validContract()
		mutate(c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	c := validContract()
	c.EndToEnd = append(fill(15, &b), c.EndToEnd[1])
	c.PerLayer = fill(128, nil)
	for i := range c.PerLayer {
		c.PerLayer[i].Name = fmt.Sprintf("p%d", i)
	}
	if err := c.validate(); err != nil {
		t.Errorf("16 end-to-end and 128 per-layer metrics refused: %v", err)
	}
}

// The ledger must carry exactly the declared names in the declared units.
func TestLedgerConform(t *testing.T) {
	specs := validContract().EndToEnd
	l := ledger{}
	l.set("cells_per_s", "cells/s", 1, 1)
	if err := l.conform(specs); err == nil {
		t.Error("a ledger without setup_s conformed")
	}
	l.set("setup_s", "ms", 1, 1)
	if err := l.conform(specs); err == nil {
		t.Error("a unit mismatch conformed")
	}
	l.set("setup_s", "s", 1, 1)
	if err := l.conform(specs); err != nil {
		t.Errorf("exact ledger refused: %v", err)
	}
	l.set("extra", "ms", 1, 1)
	if err := l.conform(specs); err == nil {
		t.Error("an undeclared metric conformed")
	}
}

// BENCHMARK.json agrees with the program: it passes its own limits, names
// exactly the registered workloads, and runs this directory.
func TestBenchmarkJSONAgrees(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program registers %d", len(c.Workloads), len(workloads))
	}
	for _, w := range workloads {
		if !c.workload(w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
}

// judge: a worse median beyond the bound regresses, a spread beyond the
// bound leaves the pairing unresolved unless B wins every run.
func TestJudge(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "pass_ms_p50", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "cells_per_s", Better: "higher", Bound: &bound}
	tight := func(mid float64) *series {
		return newSeries("x", []float64{mid * 0.99, mid, mid, mid, mid * 1.01, mid, mid, mid, mid, mid})
	}
	wide := func(mid float64) *series {
		return newSeries("x", []float64{mid * 0.8, mid * 0.85, mid * 0.9, mid, mid, mid, mid * 1.1, mid * 1.15, mid * 1.2, mid})
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b *series
		want string
	}{
		{"same", lower, tight(100), tight(100), verdictOK},
		{"5% slower", lower, tight(100), tight(105), verdictOK},
		{"15% slower", lower, tight(100), tight(115), verdictRegressed},
		{"15% faster", lower, tight(100), tight(85), verdictOK},
		{"15% less throughput", higher, tight(100), tight(85), verdictRegressed},
		{"15% more throughput", higher, tight(100), tight(115), verdictOK},
		{"noisy", lower, wide(100), wide(100), verdictUnresolved},
		{"noisy but every run better", lower, wide(100), wide(50), verdictOK},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// The driver picks the seeds: a probe's self-check must hold under any of
// them, not only under the fixtures' seed 1. (Which k Fig. 8's silhouette
// sweep picks moves with the seed — 10 for a true 9 under seed 11.)
func TestCharzSuiteAnySeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds nine modules per seed")
	}
	for _, seed := range []uint64{1, 11, 42, 424242} {
		if _, err := charzSuite(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// Scaling by the reference cancels the box's speed: a window on a box twice
// as slow — pass, processor time and reference sample all twice as long —
// reads as the first one does.
func TestWindowSpeed(t *testing.T) {
	a := window{wall: 700 * time.Millisecond, cpu: 1300 * time.Millisecond, cells: 42, refMs: referenceMs}
	b := window{wall: 2 * a.wall, cpu: 2 * a.cpu, cells: 42, refMs: 2 * referenceMs}
	if a.speed() != 1 || b.speed() != 2 {
		t.Fatalf("speeds %v and %v, want 1 and 2", a.speed(), b.speed())
	}
	if x, y := ms(a.wall)/a.speed(), ms(b.wall)/b.speed(); x != y {
		t.Errorf("scaled pass times %v and %v", x, y)
	}
	var nilRef *reference
	if nilRef.sample() != referenceMs {
		t.Error("a nil reference must read the reference speed")
	}
	ref := newReference(2)
	defer ref.stop()
	if got := ref.sample(); got <= 0 {
		t.Errorf("sample took %v ms", got)
	}
	if n := testing.AllocsPerRun(10, func() { ref.sample() }); n != 0 {
		t.Errorf("a sample allocates %v times: that would count into allocs_per_cell", n)
	}
}

func TestCheckParallelism(t *testing.T) {
	if warn, err := checkParallelism(2, 2); err != nil || warn != "" {
		t.Errorf("2 workers on 2 processors: warning %q, error %v", warn, err)
	}
	if _, err := checkParallelism(4, 2); err == nil {
		t.Error("4 workers on 2 processors accepted")
	}
	if warn, err := checkParallelism(1, 1); err != nil || warn == "" {
		t.Errorf("2 clients on 1 processor: warning %q, error %v; want a warning and a run", warn, err)
	}
}

// Every workload runs one checked pass with nothing failing, through the
// same set-up and measuring code as a real run. The fig12 workloads must
// agree on one digest — one sweep through five routes — and the warm ones
// must simulate nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~6 sweeps")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(root, t.TempDir(), 1, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(in.workers)
	defer ref.stop()
	fig12Digest := ""
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, _, err := setUp(context.Background(), w, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := measure(context.Background(), w, in, r, limit{passes: 1}, ref)
			if err := r.close(); err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.cells == 0 {
				t.Fatalf("%d of %d cells failed: %s", p.failed, p.cells, p.firstFail)
			}
			if n := len(p.allWallsMs()); n != r.clients() {
				t.Errorf("%d passes for %d clients", n, r.clients())
			}
			// One pass is one window, with the reference read at both ends.
			if len(p.windows) != 1 || p.windows[0].passes0 != 1 {
				t.Errorf("windows %+v, want one with one pass of client 0", p.windows)
			} else if s := p.windows[0].speed(); s < 0.2 || s > 20 {
				t.Errorf("the reference read the box at %.2f of its speed", s)
			}
			if strings.HasPrefix(w.name, "fig12_") {
				if fig12Digest == "" {
					fig12Digest = p.digests[0]
				}
				if p.digests[0] != fig12Digest {
					t.Errorf("digest %s differs from the other fig12 routes' %s", p.digests[0][:12], fig12Digest[:12])
				}
			}
			if w.attr == attrWarm && p.served != p.cells {
				t.Errorf("warm workload simulated %d cells", p.cells-p.served)
			}
		})
	}
}

// The result line carries exactly correct, attempted, failed and metrics,
// and per metric exactly value and unit — the sample count stays in the
// report file.
func TestResultLineShape(t *testing.T) {
	rep := &report{Correct: true, Attempted: 42, Metrics: ledger{}}
	rep.Metrics.set("setup_s", "s", 0.8127, 3)
	b, err := resultLine(rep)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":42,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}`
	if string(b) != want {
		t.Errorf("result line\n got %s\nwant %s", b, want)
	}
	rep.Metrics.set("ratio", "ratio", math.NaN(), 1)
	if _, err := resultLine(rep); err == nil {
		t.Error("a NaN metric made it into the result line")
	}
}

// Both modes emit exactly the names BENCHMARK.json declares. The traced
// run also writes a span file that parses and nests, shows a clean fabric
// dispatch, and on fig12_inproc spends under 5% of a pass outside layer
// calls: the sim.cell spans plus the pass's own self time are the pass.
func TestEmittedNamesAgreeWithBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every route and probe once: about 25 s")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	in, err := newInputs(root, out, 1, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}

	warm, _ := workloadByName("fig12_campaign_warm")
	rep := &report{Metrics: ledger{}}
	if err := runUntraced(context.Background(), warm, in, 50*time.Millisecond, rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Metrics.conform(c.EndToEnd); err != nil {
		t.Error(err)
	}
	for name, v := range rep.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v: must never be 0", name, v.Value)
		}
	}

	inproc, _ := workloadByName("fig12_inproc")
	rep = &report{Metrics: ledger{}}
	if err := runTraced(context.Background(), inproc, in, 200*time.Millisecond, rep, out); err != nil {
		t.Fatal(err)
	}
	if err := rep.Metrics.conform(c.PerLayer); err != nil {
		t.Error(err)
	}
	if rep.Failed != 0 {
		t.Errorf("%d of %d cells failed: %s", rep.Failed, rep.Attempted, rep.FirstFailure)
	}
	if _, err := resultLine(rep); err != nil {
		t.Errorf("per-layer metrics do not serialize: %v", err)
	}
	for _, name := range []string{"fabric.redispatched", "fabric.expired_leases", "fabric.local_cells", "client.retries"} {
		if v := rep.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if v := rep.Metrics["bench.pass_self_share"].Value; v > 0.05 {
		t.Errorf("fig12_inproc: %.1f%% of pass time is outside sim.cell spans", 100*v)
	}
	shares := 0.0
	for _, p := range phaseSpans {
		shares += rep.Metrics["sim.phase."+p.name[len("sim."):]+"_share"].Value
	}
	if shares < 0.95 || shares > 1.0001 {
		t.Errorf("phase shares add up to %v of a cell", shares)
	}

	f, err := obs.ReadFile(filepath.Join(out, "fig12_inproc.seed1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Error(err)
	}
}
