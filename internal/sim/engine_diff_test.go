package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"svard/internal/mem"
	"svard/internal/memctrl"
	"svard/internal/obs"
)

// diffBase is the differential-test system: small enough that the full
// defense x mix x Svärd matrix runs in seconds, large enough that every
// engine path (refresh, victim backlogs, write drain, throttling,
// migrations, metadata traffic, MSHR/queue back-pressure) is exercised.
func diffBase() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.RowsPerBank = 2048
	cfg.CellsPerRow = 2048
	cfg.InstrPerCore = 10_000
	cfg.WarmupPerCore = 2_000
	cfg.NRH = 64 // low threshold: maximal defense activity
	return cfg
}

// diffMixes are the access-pattern legs of the differential matrix: a
// streaming mix (high row-buffer locality, long drained-queue gaps), and
// the two adversarial patterns (uncached attacker cores that saturate
// the controller).
func diffMixes() map[string][]string {
	return map[string][]string{
		"stream":       {"lbm06", "libquantum06"},
		"attack:hydra": {"attack:hydra", "mcf06"},
		"attack:rrs":   {"attack:rrs", "mcf06"},
	}
}

// runBoth executes cfg under both engines and returns (skip, naive). Both
// runs are watched by the DRAM protocol checker (see protocolTally.run),
// so every case of the differential matrix also requires each engine's
// command stream to be legal, and the two streams must be the same
// command for command on every channel: a mismatch fails the test at the
// first differing command.
func runBoth(t *testing.T, cfg Config) (Result, Result) {
	t.Helper()
	return runBothRecorded(t, cfg, nil, nil)
}

// issued is one command of a run's stream, with the issuing controller's
// read and write queue depths when it issued.
type issued struct {
	mem.Command
	reads, writes int
}

func (c *issued) String() string {
	if c == nil {
		return "none"
	}
	return fmt.Sprintf("%c bank %d row %d write=%v at cycle %d (queues %d/%d)",
		c.Kind, c.Bank, c.Row, c.Write, c.Cycle, c.reads, c.writes)
}

// runBothRecorded is runBoth with recorders attached to the event
// engine's run (skipRec) and the reference loop's (naiveRec); either may
// be nil.
func runBothRecorded(t *testing.T, cfg Config, skipRec, naiveRec *obs.Recorder) (Result, Result) {
	t.Helper()
	var checked protocolTally
	var streams [2][][]issued // per engine (skip, naive), per channel
	run := func(engine int, loop engineLoop, rec *obs.Recorder) Result {
		res, err := checked.runWatched(cfg, loop, rec, func(ch int, mc *memctrl.Controller, cmd mem.Command) {
			s := &streams[engine]
			for len(*s) <= ch {
				*s = append(*s, nil)
			}
			r, w := mc.QueueLens()
			(*s)[ch] = append((*s)[ch], issued{cmd, r, w})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	skip, naive := run(0, (*machine).runSkip, skipRec), run(1, (*machine).runNaive, naiveRec)
	at := func(engine, ch, i int) *issued {
		if s := streams[engine]; ch < len(s) && i < len(s[ch]) {
			return &s[ch][i]
		}
		return nil
	}
	for ch := range max(len(streams[0]), len(streams[1])) {
		for i := 0; ; i++ {
			a, b := at(0, ch, i), at(1, ch, i)
			if a == nil && b == nil {
				break
			}
			if a == nil || b == nil || a.Command != b.Command {
				t.Fatalf("engines issued different commands (%s, %s, nRH %v, mix %v) on channel %d, command %d:\n skip:  %v\n naive: %v",
					cfg.Backend, cfg.Defense, cfg.NRH, cfg.Mix, ch, i, a, b)
			}
		}
	}
	return skip, naive
}

// TestEngineDifferential is the tentpole guarantee: the cycle-skipping
// engine produces a bit-identical Result (IPC, Cycles, every MC stat,
// Violations, Finished) to the per-cycle reference loop across all five
// defenses, the streaming and adversarial mixes, and Svärd on/off.
func TestEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is seconds-scale")
	}
	defenses := append([]string{"none"}, DefenseNames...)
	for _, defense := range defenses {
		for mixName, mix := range diffMixes() {
			for _, svard := range []bool{false, true} {
				if defense == "none" && svard {
					continue // Svärd without a defense is a no-op
				}
				name := fmt.Sprintf("%s/%s/svard=%v", defense, mixName, svard)
				t.Run(name, func(t *testing.T) {
					t.Parallel() // cases share only the concurrency-safe module table
					cfg := diffBase()
					cfg.Defense = defense
					cfg.Mix = mix
					cfg.Svard = svard
					skip, naive := runBoth(t, cfg)
					if !reflect.DeepEqual(skip, naive) {
						t.Errorf("engines diverged:\nskip:  %+v\nnaive: %+v", skip, naive)
					}
					if !skip.Finished {
						t.Errorf("differential case did not finish in %d cycles", cfg.MaxCycles)
					}
				})
			}
		}
	}
}

// TestEngineDifferentialHBM2 extends the tentpole guarantee to the
// multi-channel backend: on the HBM2 preset (four independent pseudo
// channels, each with its own controller, defense instance, and
// NextEvent bound), the event-driven engine must stay bit-identical to
// the per-cycle reference loop. A skip bound computed over one channel
// while another still has work pending would diverge here.
func TestEngineDifferentialHBM2(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is seconds-scale")
	}
	defenses := append([]string{"none"}, DefenseNames...)
	for _, defense := range defenses {
		for mixName, mix := range diffMixes() {
			name := fmt.Sprintf("%s/%s", defense, mixName)
			t.Run(name, func(t *testing.T) {
				t.Parallel() // cases share only the concurrency-safe module table
				cfg := diffBase()
				cfg.Backend = "hbm2"
				cfg.Defense = defense
				cfg.Mix = mix
				cfg.Svard = defense != "none" // per-row thresholds across the channel split
				skip, naive := runBoth(t, cfg)
				if !reflect.DeepEqual(skip, naive) {
					t.Errorf("engines diverged on hbm2:\nskip:  %+v\nnaive: %+v", skip, naive)
				}
				if !skip.Finished {
					t.Errorf("hbm2 differential case did not finish in %d cycles", cfg.MaxCycles)
				}
			})
		}
	}
}

// TestEngineIdentity: on the fixture shape with all five defenses, the
// Fig. 12 and Fig. 13 sweeps fold the same cells under the event engine,
// on the default env's arenas and twin memo as a sweep runs, as under
// the per-cycle reference loop (watched by the protocol checker), on
// both backends.
func TestEngineIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("four seconds-scale sweeps")
	}
	for _, backend := range []string{"ddr4-3200", "hbm2"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			fig12, fig13 := goldenFig12Options(), goldenFig13Options()
			fig12.Defenses = DefenseNames
			fig12.Backends, fig13.Backends = []string{backend}, []string{backend}
			ctx := context.Background()
			engine12, err := RunFig12Ctx(ctx, fig12)
			if err != nil {
				t.Fatal(err)
			}
			engine13, err := RunFig13Ctx(ctx, fig13)
			if err != nil {
				t.Fatal(err)
			}
			var checked protocolTally
			reference := func(cfg Config) (Result, error) { return checked.runWatched(cfg, (*machine).runNaive, nil, nil) }
			fig12.Runner, fig13.Runner = reference, reference
			reference12, err := RunFig12Ctx(ctx, fig12)
			if err != nil {
				t.Fatal(err)
			}
			reference13, err := RunFig13Ctx(ctx, fig13)
			if err != nil {
				t.Fatal(err)
			}
			compareCells(t, engine12, reference12)
			compareCells(t, engine13, reference13)
		})
	}
}

// TestEngineDifferentialTruncated pins bit-identity on runs cut off by
// MaxCycles, including the truncated-IPC accounting.
func TestEngineDifferentialTruncated(t *testing.T) {
	cfg := diffBase()
	cfg.Defense = "para"
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.MaxCycles = 40_000 // past warmup, well before finish
	skip, naive := runBoth(t, cfg)
	if !reflect.DeepEqual(skip, naive) {
		t.Errorf("truncated engines diverged:\nskip:  %+v\nnaive: %+v", skip, naive)
	}
	if skip.Finished {
		t.Fatal("truncation case finished; shrink MaxCycles")
	}
	if skip.Cycles != cfg.MaxCycles {
		t.Errorf("truncated Cycles = %d, want MaxCycles %d", skip.Cycles, cfg.MaxCycles)
	}
}

// TestEngineSkipsCycles asserts the engine actually skips: on a
// memory-bound mix the event-driven driver must reach the identical
// final state while ticking well under half the simulated cycles. This
// is the sim-level regression test for the speedup mechanism itself —
// a NextEvent that degenerates to cycle+1 or a Tick that always
// reports activity passes every differential test but fails here.
func TestEngineSkipsCycles(t *testing.T) {
	cfg := diffBase()
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	m, err := testEnv(nil).newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle, finished := m.runSkip(cfg.MaxCycles)
	if !finished {
		t.Fatalf("run did not finish in %d cycles", cfg.MaxCycles)
	}
	if m.ticks >= cycle/2 {
		t.Errorf("event engine ticked %d of %d cycles (%.0f%%); expected well under half",
			m.ticks, cycle, 100*float64(m.ticks)/float64(cycle))
	}

	// The reference loop ticks every cycle by definition.
	mn, err := testEnv(nil).newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nCycle, _ := mn.runNaive(cfg.MaxCycles)
	if nCycle != cycle {
		t.Errorf("engines ended at different cycles: %d vs %d", cycle, nCycle)
	}
	if mn.ticks != nCycle+1 {
		t.Errorf("reference loop ticked %d of %d cycles", mn.ticks, nCycle+1)
	}
}

// TestExactFinishCycle is the regression test for the 1024-cycle finish
// poll: both engines must end at the precise cycle the last core
// finishes, equal to the maximum per-core doneCycle.
func TestExactFinishCycle(t *testing.T) {
	cfg := diffBase()
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	for name, loop := range map[string]engineLoop{"skip": (*machine).runSkip, "naive": (*machine).runNaive} {
		m, err := testEnv(nil).newMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cycle, finished := loop(m, cfg.MaxCycles)
		if !finished {
			t.Fatalf("%s: run did not finish", name)
		}
		var last uint64
		for i, c := range m.cores {
			if !c.Finished() {
				t.Fatalf("%s: core %d not finished at end", name, i)
			}
			if dc := c.DoneCycle(); dc > last {
				last = dc
			}
		}
		if cycle != last {
			t.Errorf("%s: run ended at cycle %d, last core finished at %d", name, cycle, last)
		}
	}
}

// TestTruncatedIPCExcludesWarmup is the regression test for the
// truncated-run IPC bug: a run cut off by MaxCycles after warmup must
// report measurement-region IPC ((Retired-WarmupTarget)/(cycle-start)),
// not Retired/cycle, which silently counted warmup instructions over
// warmup cycles.
func TestTruncatedIPCExcludesWarmup(t *testing.T) {
	cfg := diffBase()
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.InstrPerCore = 1 << 40 // never finishes: always truncated
	cfg.MaxCycles = 60_000
	m, err := testEnv(nil).newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle, finished := m.runSkip(cfg.MaxCycles)
	res := m.result(cfg, cycle, finished)
	if finished {
		t.Fatal("truncation case finished")
	}
	for i, c := range m.cores {
		if !c.Started() {
			t.Fatalf("core %d still in warmup at %d cycles; raise MaxCycles", i, cfg.MaxCycles)
		}
		want := float64(c.Retired-c.WarmupTarget) / float64(cycle-c.StartCycle())
		if res.IPC[i] != want {
			t.Errorf("core %d truncated IPC = %v, want measurement-region %v", i, res.IPC[i], want)
		}
		// The buggy formula mixed warmup into both numerator and
		// denominator; on this workload the two visibly disagree.
		buggy := float64(c.Retired) / float64(cycle)
		if res.IPC[i] == buggy {
			t.Errorf("core %d truncated IPC %v indistinguishable from the warmup-polluted formula; test lost its power", i, res.IPC[i])
		}
	}
}

// TestTruncatedIPCZeroDuringWarmup: a run cut off before any core
// leaves warmup reports 0 IPC, not warmup throughput.
func TestTruncatedIPCZeroDuringWarmup(t *testing.T) {
	cfg := diffBase()
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.MaxCycles = 40 // a handful of cycles: nowhere near 2 000 retires
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished {
		t.Fatal("warmup-truncation case finished")
	}
	for i, ipc := range res.IPC {
		if ipc != 0 {
			t.Errorf("core %d reported IPC %v during warmup", i, ipc)
		}
	}
}

// fuzzMixPool is what FuzzEngineSkipVsNoSkip fills cores from: the
// differential matrix's streaming and pointer-chasing workloads, two
// write-heavy zipfian ones, and both adversarial patterns.
var fuzzMixPool = []string{"lbm06", "libquantum06", "mcf06", "ycsb-a", "tpcc", "attack:hydra", "attack:rrs"}

// fuzzChoices are the axes of a fuzzed configuration, each an index
// into its list of options; fuzzSeed and fuzzConfig are inverses over
// them, so the seed corpus can name the differential matrix's corners.
type fuzzChoices struct {
	defense  uint64    // "none", then DefenseNames
	nrh      uint64    // 1024, 256, 64
	svard    uint64    // off, on (ignored without a defense)
	hbm2     uint64    // ddr4-3200, hbm2
	cores    uint64    // 1..4
	mix      [4]uint64 // fuzzMixPool, per core
	temporal uint64    // static, diffTemporal
	truncate uint64    // 0 = run to the end; k = stop at 6000*k cycles (1..7)
	seed     uint64    // Config.Seed 1, 2
}

// fuzzRadix is the number of options on each axis, in axes' order.
var fuzzRadix = [...]uint64{6, 3, 2, 2, 4, 7, 7, 7, 7, 2, 8, 2}

func (c *fuzzChoices) axes() [len(fuzzRadix)]*uint64 {
	return [...]*uint64{&c.defense, &c.nrh, &c.svard, &c.hbm2, &c.cores,
		&c.mix[0], &c.mix[1], &c.mix[2], &c.mix[3], &c.temporal, &c.truncate, &c.seed}
}

func fuzzSeed(c fuzzChoices) uint64 {
	seed, scale := uint64(0), uint64(1)
	for i, a := range c.axes() {
		seed += *a % fuzzRadix[i] * scale
		scale *= fuzzRadix[i]
	}
	return seed
}

func fuzzConfig(seed uint64) Config {
	var c fuzzChoices
	for i, a := range c.axes() {
		*a = seed % fuzzRadix[i]
		seed /= fuzzRadix[i]
	}
	cfg := diffBase()
	cfg.InstrPerCore, cfg.WarmupPerCore = 3_000, 600
	cfg.MaxCycles = 1_500_000 // a stalled configuration ends as a truncated one
	cfg.Defense = append([]string{"none"}, DefenseNames...)[c.defense]
	cfg.NRH = []float64{1024, 256, 64}[c.nrh]
	cfg.Svard = c.svard == 1 && cfg.Defense != "none"
	if c.hbm2 == 1 {
		cfg.Backend = "hbm2"
	}
	cfg.Cores = 1 + int(c.cores)
	cfg.Mix = make([]string, cfg.Cores)
	for i := range cfg.Mix {
		cfg.Mix[i] = fuzzMixPool[c.mix[i]]
	}
	if c.temporal == 1 {
		cfg.Temporal = diffTemporal()
	}
	if c.truncate > 0 {
		cfg.MaxCycles = 6_000 * c.truncate
	}
	cfg.Seed = 1 + c.seed
	return cfg
}

// FuzzEngineSkipVsNoSkip is the differential matrix with the fuzzer
// choosing the cell: any valid small configuration — defense, nRH, Svärd,
// backend, 1-4 cores of benign and adversarial workloads, temporal drift,
// run to the end or cut off — must give bit-identical Results under the
// event-driven engine and the per-cycle reference loop. The seed corpus
// is the corners TestEngineDifferential{,HBM2,Truncated,Temporal} cover.
func FuzzEngineSkipVsNoSkip(f *testing.F) {
	pool := func(name string) uint64 {
		for i, n := range fuzzMixPool {
			if n == name {
				return uint64(i)
			}
		}
		panic(name)
	}
	corners := [][2]string{{"lbm06", "libquantum06"}, {"attack:hydra", "mcf06"}, {"attack:rrs", "mcf06"}}
	for d := uint64(0); d <= uint64(len(DefenseNames)); d++ {
		for m, mix := range corners {
			// nRH 64, two cores; the HBM2 and temporal rows ride on one
			// mix each, Svärd alternates.
			f.Add(fuzzSeed(fuzzChoices{defense: d, nrh: 2, svard: (d + uint64(m)) % 2, hbm2: uint64(m) & 1, cores: 1,
				mix: [4]uint64{pool(mix[0]), pool(mix[1])}, temporal: uint64(m) >> 1}))
		}
	}
	f.Add(fuzzSeed(fuzzChoices{defense: 4, nrh: 2, cores: 1, mix: [4]uint64{pool("mcf06"), pool("ycsb-a")}, truncate: 7})) // para, cut off
	// A read queue empty for one cycle on HBM2: the write-drain mode once
	// flipped in the per-cycle loop only.
	f.Add(uint64(1988))
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := fuzzConfig(seed)
		skip, naive := runBoth(t, cfg)
		if !reflect.DeepEqual(skip, naive) {
			t.Errorf("engines diverged on %+v:\nskip:  %+v\nnaive: %+v", cfg, skip, naive)
		}
	})
}
