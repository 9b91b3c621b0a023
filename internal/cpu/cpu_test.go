package cpu

import (
	"reflect"
	"slices"
	"testing"
)

// scriptGen yields a fixed access script.
type scriptGen struct {
	gap  int
	step uint64
	next uint64
}

func (g *scriptGen) Next() (int, uint64, bool) {
	a := g.next
	g.next += g.step
	return g.gap, a, false
}

// instantPort satisfies every read of its core after a fixed latency.
type instantPort struct {
	core    *Core
	latency uint64
	pending []int // miss registers
	at      []uint64
	refused bool
}

// newCore builds a core over p and makes it the core p answers.
func newCore(cfg Config, gen Generator, p *instantPort) *Core {
	p.core = New(0, cfg, gen, p)
	return p.core
}

func (p *instantPort) Read(addr uint64, mshr int, cycle uint64) bool {
	if p.refused {
		return false
	}
	p.pending = append(p.pending, mshr)
	p.at = append(p.at, cycle+p.latency)
	return true
}

func (p *instantPort) Write(addr uint64, cycle uint64) bool { return !p.refused }

func (p *instantPort) tick(cycle uint64) {
	for i := 0; i < len(p.pending); {
		if cycle >= p.at[i] {
			p.core.Complete(p.pending[i], cycle)
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			p.at = append(p.at[:i], p.at[i+1:]...)
		} else {
			i++
		}
	}
}

func runCore(c *Core, p *instantPort, cycles uint64) {
	for cyc := uint64(0); cyc < cycles; cyc++ {
		p.tick(cyc)
		c.Tick(cyc)
		if c.Finished() {
			return
		}
	}
}

func TestComputeBoundIPCNearWidth(t *testing.T) {
	// A stream of pure cache hits (tiny footprint) retires near full
	// width.
	cfg := DefaultConfig()
	p := &instantPort{latency: 100}
	c := newCore(cfg, &scriptGen{gap: 40, step: 64}, p) // footprint cycles inside the LLC after warmup
	gen := c.gen.(*scriptGen)
	gen.next = 0
	gen.step = 0 // always the same line: all hits after the first fill
	c.WarmupTarget = 1000
	c.MeasureTarget = 20_000
	runCore(c, p, 1_000_000)
	if !c.Finished() {
		t.Fatal("core did not finish")
	}
	if ipc := c.IPC(); ipc < 2.0 {
		t.Errorf("compute-bound IPC = %v, want near issue width", ipc)
	}
}

func TestMemoryBoundIPCLow(t *testing.T) {
	cfg := DefaultConfig()
	p := &instantPort{latency: 400}
	// Every access a new line far apart: all misses, gap 0.
	c := newCore(cfg, &scriptGen{gap: 0, step: 1 << 20}, p)
	c.WarmupTarget = 100
	c.MeasureTarget = 5_000
	runCore(c, p, 10_000_000)
	if !c.Finished() {
		t.Fatal("core did not finish")
	}
	if ipc := c.IPC(); ipc > 1.0 {
		t.Errorf("miss-bound IPC = %v, expected well below 1", ipc)
	}
}

func TestBackPressureStallsWithoutLoss(t *testing.T) {
	cfg := DefaultConfig()
	p := &instantPort{latency: 10, refused: true}
	c := newCore(cfg, &scriptGen{gap: 0, step: 1 << 20}, p)
	c.WarmupTarget = 0
	c.MeasureTarget = 1000
	for cyc := uint64(0); cyc < 2000; cyc++ {
		p.tick(cyc)
		c.Tick(cyc)
	}
	retiredWhileRefused := c.Retired
	// Un-refuse: the core must make progress again.
	p.refused = false
	runCore(c, p, 5_000_000)
	if !c.Finished() {
		t.Fatalf("core stuck after back-pressure lifted (retired %d)", c.Retired)
	}
	if retiredWhileRefused > 64 {
		t.Errorf("retired %d instructions with memory refusing", retiredWhileRefused)
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1000 // remove the MSHR limit; the window must bind
	p := &instantPort{latency: 1 << 40}
	c := newCore(cfg, &scriptGen{gap: 0, step: 1 << 20}, p)
	c.MeasureTarget = 1 << 40
	for cyc := uint64(0); cyc < 10_000; cyc++ {
		c.Tick(cyc)
	}
	if len(p.pending) > cfg.Window {
		t.Errorf("%d outstanding reads exceed the %d-entry window", len(p.pending), cfg.Window)
	}
	if len(p.pending) == 0 {
		t.Error("no reads issued")
	}
}

func TestLLCEvictionsWriteBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCBytes = 64 * 16 * 4 // 4 sets
	p := &instantPort{latency: 10}
	writes := 0
	wp := &countingPort{inner: p, writes: &writes}
	gen := &scriptGen{gap: 0, step: 64 * 4} // march through sets
	c := New(0, cfg, gen, wp)
	c.MeasureTarget = 1 << 40
	// Make every access a write so lines are dirty.
	c2 := New(0, cfg, &writeGen{step: 64 * 4}, wp)
	c2.MeasureTarget = 1 << 40
	p.core = c2
	for cyc := uint64(0); cyc < 300_000; cyc++ {
		p.tick(cyc)
		c2.Tick(cyc)
	}
	if writes == 0 {
		t.Error("dirty evictions produced no writebacks")
	}
	_ = c
}

// TestTickReportsProgress pins the activity contract the event engine
// depends on: the first idle tick may latch the next pending
// instruction (it always executes — the driver steps active→+1), but
// every consecutive idle tick must leave the core bit-identical, so
// skipping those cycles cannot diverge from ticking through them.
func TestTickReportsProgress(t *testing.T) {
	cfg := DefaultConfig()
	p := &instantPort{latency: 1 << 40} // reads never complete
	c := newCore(cfg, &scriptGen{gap: 0, step: 1 << 20}, p)
	c.MeasureTarget = 1 << 40
	active, idle := 0, 0
	wasIdle := false
	for cyc := uint64(0); cyc < 1000; cyc++ {
		var before Core
		var beforeRob []uint64
		if wasIdle {
			before = *c
			beforeRob = append([]uint64(nil), c.rob...)
		}
		if c.Tick(cyc) {
			active++
			wasIdle = false
			continue
		}
		if wasIdle {
			idle++
			after := *c
			before.rob, after.rob = nil, nil // compared via the snapshot below
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("cycle %d: consecutive idle tick mutated core state", cyc)
			}
			if !reflect.DeepEqual(beforeRob, c.rob) {
				t.Fatalf("cycle %d: consecutive idle tick mutated the window", cyc)
			}
		}
		wasIdle = true
		if n := c.NextEvent(cyc); n != 1<<64-1 {
			t.Fatalf("cycle %d: memory-blocked core has self next event %d", cyc, n)
		}
	}
	if active == 0 || idle == 0 {
		t.Fatalf("degenerate run: %d active, %d idle ticks", active, idle)
	}
}

// TestEventDrivenCoreMatchesNaive drives two identical cores over the
// same deterministic port — one ticked every cycle, one only at cycles
// the NextEvent contract requires — and checks they retire the same
// instruction count at the same finish cycle.
func TestEventDrivenCoreMatchesNaive(t *testing.T) {
	mk := func() (*Core, *instantPort) {
		cfg := DefaultConfig()
		p := &instantPort{latency: 137}
		c := newCore(cfg, &scriptGen{gap: 3, step: 1 << 14}, p)
		c.WarmupTarget = 500
		c.MeasureTarget = 10_000
		return c, p
	}
	naive, np := mk()
	var naiveEnd uint64
	for cyc := uint64(0); ; cyc++ {
		np.tick(cyc)
		naive.Tick(cyc)
		if naive.Finished() {
			naiveEnd = cyc
			break
		}
		if cyc > 10_000_000 {
			t.Fatal("naive run did not finish")
		}
	}

	ev, ep := mk()
	var evEnd uint64
	ticks := uint64(0)
	for cyc := uint64(0); ; {
		ep.tick(cyc)
		active := ev.Tick(cyc)
		ticks++
		if ev.Finished() {
			evEnd = cyc
			break
		}
		if active {
			cyc++
			continue
		}
		next := ev.NextEvent(cyc)
		// The port is the core's "memory controller": its earliest
		// pending completion is the external wake-up.
		for _, at := range ep.at {
			if at > cyc && at < next {
				next = at
			}
		}
		if next <= cyc {
			next = cyc + 1
		}
		cyc = next
		if cyc > 10_000_000 {
			t.Fatal("event-driven run did not finish")
		}
	}
	if evEnd != naiveEnd || ev.Retired != naive.Retired {
		t.Fatalf("event-driven run diverged: end %d vs %d, retired %d vs %d",
			evEnd, naiveEnd, ev.Retired, naive.Retired)
	}
	if ticks >= naiveEnd {
		t.Errorf("event-driven run ticked %d times over %d cycles (no skipping)", ticks, naiveEnd)
	}
}

type writeGen struct {
	step uint64
	next uint64
}

func (g *writeGen) Next() (int, uint64, bool) {
	a := g.next
	g.next += g.step
	return 0, a, true
}

type countingPort struct {
	inner  *instantPort
	writes *int
}

func (p *countingPort) Read(addr uint64, mshr int, cycle uint64) bool {
	return p.inner.Read(addr, mshr, cycle)
}
func (p *countingPort) Write(addr uint64, cycle uint64) bool {
	*p.writes++
	return p.inner.Write(addr, cycle)
}

// loopGen walks a footprint of lines twice the LLC's, writing every third
// access, so a run fills sets, evicts and writes dirty lines back.
type loopGen struct{ i uint64 }

func (g *loopGen) Next() (int, uint64, bool) {
	g.i++
	return int(g.i % 5), (g.i * 7919 % (1 << 16)) * 64, g.i%3 == 0
}

// TestSaveRestoreContinues: a core saved between two ticks, with reads in
// flight, and restored into a freshly Reset core continues exactly as the
// original: the same retirements at the same cycles, the same writebacks,
// the same cache contents.
func TestSaveRestoreContinues(t *testing.T) {
	cfg := DefaultConfig()
	wbA, wbB := 0, 0
	pA := &instantPort{latency: 90}
	a := New(0, cfg, &loopGen{}, &countingPort{inner: pA, writes: &wbA})
	pA.core = a
	a.WarmupTarget, a.MeasureTarget = 1000, 300_000
	const half = 60_000
	for cyc := uint64(0); cyc < half; cyc++ {
		pA.tick(cyc)
		a.Tick(cyc)
	}
	var st State
	if !a.Save(&st) {
		t.Fatal("a core refused to save")
	}
	if a.inflight == 0 || len(st.llc.lines) == 0 {
		t.Fatalf("degenerate save: %d reads in flight, %d lines cached", a.inflight, len(st.llc.lines))
	}
	gen := *a.gen.(*loopGen)
	pB := &instantPort{latency: 90, pending: slices.Clone(pA.pending), at: slices.Clone(pA.at)}
	b := New(0, cfg, &gen, &countingPort{inner: pB, writes: &wbB})
	pB.core = b
	b.Restore(&st)
	wbA = 0
	for cyc := uint64(half); !a.Finished() || !b.Finished(); cyc++ {
		pA.tick(cyc)
		pB.tick(cyc)
		if ta, tb := a.Tick(cyc), b.Tick(cyc); ta != tb || a.Retired != b.Retired {
			t.Fatalf("cycle %d: the restored core ticked %v to %d retired, the original %v to %d", cyc, tb, b.Retired, ta, a.Retired)
		}
		if cyc > 10_000_000 {
			t.Fatal("no finish")
		}
	}
	if a.DoneCycle() != b.DoneCycle() || a.IPC() != b.IPC() || wbA != wbB || wbA == 0 {
		t.Errorf("finished at %d with %d writebacks, the original at %d with %d", b.DoneCycle(), wbB, a.DoneCycle(), wbA)
	}
	for set := 0; set < a.llc.sets; set++ {
		for w := 0; w < a.llc.ways; w++ {
			i := set*a.llc.ways + w
			if a.llc.tags[i] != b.llc.tags[i] || a.llc.dirty[i] != b.llc.dirty[i] || a.llc.tags[i] != 0 && a.llc.age(set, w) != b.llc.age(set, w) {
				t.Fatalf("set %d way %d differs after the run", set, w)
			}
		}
	}
}
