package sim

import (
	"fmt"
	"reflect"
	"testing"
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
// command stream to be legal.
func runBoth(t *testing.T, cfg Config) (Result, Result) {
	t.Helper()
	var checked protocolTally
	cfg.NoSkip = false
	skip, err := checked.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoSkip = true
	naive, err := checked.run(cfg)
	if err != nil {
		t.Fatal(err)
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
					t.Parallel() // cases share only the concurrency-safe module cache and arena pool
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
				t.Parallel() // cases share only the concurrency-safe module cache and arena pool
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
	m, err := newMachine(cfg)
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
	mn, err := newMachine(cfg)
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
	for _, noskip := range []bool{false, true} {
		m, err := newMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cycle uint64
		var finished bool
		if noskip {
			cycle, finished = m.runNaive(cfg.MaxCycles)
		} else {
			cycle, finished = m.runSkip(cfg.MaxCycles)
		}
		if !finished {
			t.Fatalf("noskip=%v: run did not finish", noskip)
		}
		var last uint64
		for i, c := range m.cores {
			if !c.Finished() {
				t.Fatalf("noskip=%v: core %d not finished at end", noskip, i)
			}
			if dc := c.DoneCycle(); dc > last {
				last = dc
			}
		}
		if cycle != last {
			t.Errorf("noskip=%v: run ended at cycle %d, last core finished at %d", noskip, cycle, last)
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
	m, err := newMachine(cfg)
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
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := fuzzConfig(seed)
		skip, naive := runBoth(t, cfg)
		if !reflect.DeepEqual(skip, naive) {
			t.Errorf("engines diverged on %+v:\nskip:  %+v\nnaive: %+v", cfg, skip, naive)
		}
	})
}
