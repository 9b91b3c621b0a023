package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"svard/internal/sim"
)

// limit ends a measured phase. With dur set, each client runs passes
// until dur has elapsed, and at least `passes` of them; without, exactly
// `passes`.
type limit struct {
	passes int
	dur    time.Duration
}

func (l limit) reached(passes int, elapsed time.Duration) bool {
	return passes >= l.passes && elapsed >= l.dur
}

// phase is what one measured stretch of a route produced.
type phase struct {
	wallsMs   [][]float64 // per client, per pass
	cells     int         // cells attempted
	failed    int         // cells of passes that errored or failed a check
	served    int         // cells the caches served
	cached    int         // cells of passes that ran through a cache
	digests   []string    // per client: SHA-256 of the folded cells' JSON
	windows   []window
	mallocs   uint64
	firstFail string
}

// windowLen is the shortest stretch of the measured phase a rate is taken
// over. Client 0 closes a window at the end of its first pass after
// windowLen: a simulating pass (0.6 s and more) is a window of its own, a
// warm one shares its window with a hundred others. Cells count where
// their pass ends, whichever client ran it.
const windowLen = 250 * time.Millisecond

// window is one stretch of the measured phase: the cells of the passes
// that ended in it, those passes' summed wall time (a pass's timed part; per
// client, when the route has more than one), the processor time the process
// spent, the untimed standing-up of a cold pass's daemon included, and what
// the reference read at its two ends.
type window struct {
	wall, cpu time.Duration
	cells     int
	wall0     time.Duration // client 0's passes alone
	passes0   int
	refMs     float64
}

// speed is how much slower than the reference speed the box was during
// the window: 2 means everything took twice as long.
func (w window) speed() float64 { return w.refMs / referenceMs }

// cellsPerS is cells completed per second of summed pass wall time (per
// client, when the route has more than one).
func (p *phase) cellsPerS() float64 {
	return float64(p.cells-p.failed) / (sum(p.allWallsMs()) / 1000)
}

func (p *phase) allWallsMs() []float64 {
	var all []float64
	for _, w := range p.wallsMs {
		all = append(all, w...)
	}
	return all
}

func digestOf(folded any) (string, error) {
	b, err := json.Marshal(folded)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// goldenSubset keeps the cells of the defenses the golden fixture covers,
// in sweep order — the part of the 42-cell sweep the fixture can vouch for.
func goldenSubset(cells []sim.Fig12Cell, g fig12Fixture) []sim.Fig12Cell {
	keep := map[string]bool{}
	for _, d := range g.Defenses {
		keep[d] = true
	}
	var out []sim.Fig12Cell
	for _, c := range cells {
		if keep[c.Defense] {
			out = append(out, c)
		}
	}
	return out
}

// checker is the correctness gate of one client's passes. A pass that
// fails any check counts all its cells as failed.
type checker struct {
	in     *inputs
	attr   attribution
	digest string // of the first pass; every later pass must hash equal
}

func (c *checker) check(out passOut) error {
	if out.fault != "" {
		return fmt.Errorf("%s", out.fault)
	}
	d, err := digestOf(out.folded)
	if err != nil {
		return err
	}
	if c.digest == "" {
		c.digest = d
	} else if d != c.digest {
		return fmt.Errorf("folded cells hash %s, earlier passes %s", d[:12], c.digest[:12])
	}
	// The fixture was generated under seed 1; it is read at run time, so
	// a legitimate model fix re-baselines by updating the fixture.
	if cells, ok := out.folded.([]sim.Fig12Cell); ok && c.in.seed == c.in.golden.Base.Seed {
		if got := goldenSubset(cells, c.in.golden); !reflect.DeepEqual(got, c.in.golden.Cells) {
			return fmt.Errorf("para/rrs cells differ from fig12_golden.json")
		}
	}
	if a := out.acct; a != nil {
		switch {
		case a.total != out.cells || a.computed+a.served != a.total:
			return fmt.Errorf("attribution %+v does not add up to %d cells", *a, out.cells)
		case c.attr == attrCold && (a.computed != a.total || a.resumed != 0):
			return fmt.Errorf("cold pass attribution %+v, want all computed", *a)
		case c.attr == attrWarm && a.served != a.total:
			return fmt.Errorf("warm pass attribution %+v, want all served", *a)
		}
	}
	return nil
}

// rusage is the process's resource usage so far (zero if the kernel
// refuses, which Linux does not).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// measure runs the route's clients as closed loops until lim ends the
// phase, checking every pass. Processor time is the process's per window,
// allocations are its over the whole phase. ref is sampled where a window
// ends; nil leaves the windows unscaled.
func measure(ctx context.Context, w workloadDef, in *inputs, r route, lim limit, ref *reference) *phase {
	n := r.clients()
	p := &phase{digests: make([]string, n), wallsMs: make([][]float64, n)}
	var mu sync.Mutex
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// The window that is open: where it began, what the reference read
	// there, and the timed part of the passes that have ended in it (wall0
	// and passes0: client 0's alone). Under mu.
	open := struct {
		at          time.Time
		cpu         time.Duration
		done        int // cells of passes that succeeded
		refMs       float64
		wall, wall0 time.Duration
		passes0     int
	}{refMs: ref.sample()}
	start := time.Now()
	open.at, open.cpu = start, cpuTime()
	closeWindow := func() {
		cpu, done := cpuTime(), p.cells-p.failed
		k := ref.sample()
		p.windows = append(p.windows, window{
			wall: open.wall, cpu: cpu - open.cpu, cells: done - open.done,
			wall0: open.wall0, passes0: open.passes0, refMs: (open.refMs + k) / 2,
		})
		// The sample is no part of the next window.
		open.at, open.cpu, open.done, open.refMs = time.Now(), cpuTime(), done, k
		open.wall, open.wall0, open.passes0 = 0, 0, 0
	}

	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := &checker{in: in, attr: w.attr}
			for i := 0; ; i++ {
				if lim.reached(i, time.Since(start)) {
					break
				}
				out, err := r.pass(ctx, c)
				if err == nil {
					err = chk.check(out)
				}
				mu.Lock()
				if out.cells == 0 { // the pass died before it knew its size
					out.cells = len(sim.Fig12Jobs(in.fig12))
				}
				p.cells += out.cells
				if err != nil {
					p.failed += out.cells
					if p.firstFail == "" {
						p.firstFail = fmt.Sprintf("%s client %d pass %d: %v", w.name, c, i, err)
						fmt.Fprintln(os.Stderr, "bench:", p.firstFail)
					}
				} else {
					p.wallsMs[c] = append(p.wallsMs[c], ms(out.wall))
					open.wall += out.wall
					if c == 0 {
						open.wall0 += out.wall
						open.passes0++
					}
					if out.acct != nil {
						p.cached += out.cells
						p.served += out.acct.served
					}
				}
				if c == 0 && open.passes0 > 0 && time.Since(open.at) >= windowLen {
					closeWindow()
				}
				mu.Unlock()
				if ctx.Err() != nil {
					break
				}
			}
			p.digests[c] = chk.digest
		}()
	}
	wg.Wait()

	if len(p.windows) == 0 && open.passes0 > 0 { // a phase shorter than one window is one
		closeWindow()
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	return p
}
