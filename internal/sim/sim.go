// Package sim assembles the full performance-evaluation system of §7.1
// (Table 4): eight trace-driven cores with private LLCs, one FR-FCFS
// memory controller per (pseudo) channel of the selected backend
// (DDR4-3200 by default, HBM2 optionally), cycle-level DRAM ranks, one
// of the five defenses (with or without Svärd), and a security tracker
// that accounts read disturbance under the scaled vulnerability
// profile.
package sim

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"svard/internal/core"
	"svard/internal/cpu"
	"svard/internal/disturb"
	"svard/internal/dram"
	"svard/internal/mem"
	"svard/internal/memctrl"
	"svard/internal/mitigation"
	"svard/internal/mitigation/aqua"
	"svard/internal/mitigation/blockhammer"
	"svard/internal/mitigation/hydra"
	"svard/internal/mitigation/para"
	"svard/internal/mitigation/rrs"
	"svard/internal/obs"
	"svard/internal/population"
	"svard/internal/profile"
	"svard/internal/temporal"
	"svard/internal/trace"
)

// DefenseNames lists the evaluated defenses in Fig. 12's column order.
var DefenseNames = []string{"aqua", "blockhammer", "hydra", "para", "rrs"}

// Config describes one simulation.
type Config struct {
	CPUGHz float64
	Cores  int
	Core   cpu.Config

	// Backend selects the memory-system preset (dram.BackendByName):
	// "ddr4-3200" — the paper's Table 4 system — or "hbm2". The empty
	// string aliases ddr4-3200, so pre-backend configs, fixtures, and
	// fingerprints keep their exact meaning.
	Backend string

	ModuleLabel string  // vulnerability profile source (Table 5 label)
	RowsPerBank int     // scaled bank size (Table 4 uses 128K; see EXPERIMENTS.md)
	CellsPerRow int     // scaled row width for the vulnerability model
	NRH         float64 // target worst-case HCfirst after scaling (§7.1)

	Defense string // "none", "aqua", "blockhammer", "hydra", "para", "rrs"
	Svard   bool   // per-row thresholds instead of the worst case

	Mix           []string // one workload (or "attack:hydra"/"attack:rrs") per core
	InstrPerCore  uint64
	WarmupPerCore uint64
	MaxCycles     uint64
	Seed          uint64

	// WindowScale divides the 64 ms refresh window so that scaled-down
	// runs span a representative number of defense counting windows; the
	// acts-per-window to threshold ratio is what shapes every defense's
	// behaviour (see EXPERIMENTS.md, "time scaling"). 1 = unscaled.
	WindowScale float64

	// NoSkip forces the per-cycle reference loop instead of the
	// event-driven cycle-skipping engine. Results are bit-identical
	// either way — the differential tests enforce it — so the reference
	// loop exists only for those tests and for debugging the engine
	// itself (see EXPERIMENTS.md, "event-driven engine").
	NoSkip bool

	// Temporal, when non-nil, attaches a temporal-variation process
	// (internal/temporal): the security tracker's ground-truth
	// thresholds drift per epoch while every defense keeps reading the
	// frozen calibration view (views.go). nil means static truth — and
	// is deliberately invisible to cache keys and campaign fingerprints,
	// so every pre-temporal configuration keeps its exact identity.
	Temporal *temporal.Spec `json:",omitempty"`
}

// DefaultConfig returns the Table 4 system with scaled-down workload
// sizes (see EXPERIMENTS.md for the scaling rationale).
func DefaultConfig() Config {
	return Config{
		CPUGHz:        3.2,
		Cores:         8,
		Core:          cpu.DefaultConfig(),
		ModuleLabel:   "S0",
		RowsPerBank:   8192,
		CellsPerRow:   4096,
		NRH:           1024,
		Defense:       "none",
		InstrPerCore:  200_000,
		WarmupPerCore: 40_000,
		MaxCycles:     80_000_000,
		Seed:          1,
		WindowScale:   64,
	}
}

// Validate checks the configuration's named presets — the memory
// backend and the temporal process — without building anything. The
// campaign spec validator and the server's submit path call it so an
// invalid backend or temporal spec is a descriptive error (HTTP 400),
// never a panic inside a worker.
func (c *Config) Validate() error {
	b, err := dram.BackendByName(c.Backend)
	if err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if c.Temporal != nil {
		if err := c.Temporal.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result summarizes one simulation.
type Result struct {
	IPC        []float64
	Cycles     uint64
	MC         memctrl.Stats
	Violations uint64
	Finished   bool
}

// moduleCache memoizes calibrated modules and captured profiles, which
// are reused across the hundreds of runs of an experiment sweep. The
// cache is singleflight-style: each key carries its own sync.Once, so
// concurrent workers building *distinct* modules calibrate in parallel,
// while duplicate requests for the same key coalesce onto one build (a
// single global lock here would serialize the entire parallel sweep
// behind the expensive BuildScaled+Capture path).
var moduleCache sync.Map // key string -> *moduleEntry

type moduleEntry struct {
	once sync.Once
	mod  *profile.Module
	prof *profile.VulnProfile
	// Per-row tables the security tracker reads at high rate, derived
	// once from the disturbance model (they cost an exp/log chain per
	// row and depend only on the module): the unscaled true HCfirst and
	// the RowPress susceptibility psi, flattened to [bank*rows+row].
	// Deliberate trade: eager (16 B/row — 4 MB per module at the default
	// 8K rows, ~67 MB at the paper's 128K) in exchange for hundreds of
	// sweep runs skipping the per-run, per-touched-row rederivation. A
	// Table 5 module stays for the process; a synthetic population
	// module is one of many, each run for a few cells, so at most
	// maxResidentPopModules of those stay (admitPopModule).
	hcBase []float64
	psi    []float64
	err    error
}

// maxResidentPopModules caps the synthetic population modules
// ("pop:<seed>:<index>") the module cache holds, whichever route their
// cells arrive by — a population sweep, a compute batch, the fabric
// coordinator's local fallback. It is also the sweep's default chunk.
const maxResidentPopModules = 16

// popResident lists the cached population modules' keys, oldest first.
var popResident struct {
	sync.Mutex
	keys []string
}

// admitPopModule records a population module just added to the cache and
// evicts the oldest beyond maxResidentPopModules. Eviction is only a
// cache hint: an in-flight run holding the entry pointer keeps using it,
// and a later request for an evicted module simply rebuilds it.
func admitPopModule(key string) {
	popResident.Lock()
	defer popResident.Unlock()
	popResident.keys = append(popResident.keys, key)
	for len(popResident.keys) > maxResidentPopModules {
		moduleCache.Delete(popResident.keys[0])
		popResident.keys = popResident.keys[1:]
	}
}

func buildModule(label string, rows, cells, banks int, seed uint64) (*moduleEntry, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/%d", label, rows, cells, banks, seed)
	v, loaded := moduleCache.LoadOrStore(key, &moduleEntry{})
	if !loaded && strings.HasPrefix(label, population.LabelPrefix) {
		admitPopModule(key)
	}
	e := v.(*moduleEntry)
	e.once.Do(func() {
		spec, ok := profile.SpecByLabel(label)
		if !ok {
			// Synthetic population modules ("pop:<seed>:<index>") resolve
			// through the Monte Carlo sampler; any other unknown label is
			// an error.
			spec, ok = population.SpecForLabel(label)
		}
		if !ok {
			e.err = fmt.Errorf("sim: unknown module %q", label)
			return
		}
		m, err := profile.BuildScaled(spec, seed, rows, cells)
		if err != nil {
			e.err = err
			return
		}
		// Profile every bank the simulated system exposes so Svärd's
		// per-bank lookups never fall back across banks (security).
		all := make([]int, banks)
		for i := range all {
			all[i] = i
		}
		e.mod = m
		e.prof = profile.Capture(m.NewModel(), label, all)
		model := disturb.NewModel(m.Params, m.Geom)
		e.hcBase = make([]float64, banks*rows)
		e.psi = make([]float64, banks*rows)
		for b := 0; b < banks; b++ {
			for r := 0; r < rows; r++ {
				e.hcBase[b*rows+r] = model.HCFirst(b, r)
				e.psi[b*rows+r] = model.PressPsi(b, r)
			}
		}
	})
	return e, e.err
}

// buildDefense constructs the configured defense over thresholds th.
// When prev holds a previous instance of the same defense type (pooled
// reuse between sweep cells), it is reinitialized in place instead of
// reallocated — every defense's Reset restores the exact state its
// constructor produces, so results are bit-identical either way.
func buildDefense(name string, si mitigation.SystemInfo, th core.Thresholds, cpuGHz float64, prev mitigation.Defense) (mitigation.Defense, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return mitigation.Nop{}, nil
	case "para":
		if d, ok := prev.(*para.Defense); ok {
			d.Reset(si, th)
			return d, nil
		}
		return para.New(si, th), nil
	case "blockhammer":
		if d, ok := prev.(*blockhammer.Defense); ok {
			d.Reset(si, th)
			return d, nil
		}
		return blockhammer.New(si, th), nil
	case "hydra":
		if d, ok := prev.(*hydra.Defense); ok {
			d.Reset(si, th)
			return d, nil
		}
		return hydra.New(si, th), nil
	case "rrs":
		if d, ok := prev.(*rrs.Defense); ok {
			d.Reset(si, th, cpuGHz)
			return d, nil
		}
		return rrs.New(si, th, cpuGHz), nil
	case "aqua":
		if d, ok := prev.(*aqua.Defense); ok {
			d.Reset(si, th, cpuGHz)
			return d, nil
		}
		return aqua.New(si, th, cpuGHz), nil
	default:
		return nil, fmt.Errorf("sim: unknown defense %q", name)
	}
}

// port adapts a single controller to the core's MemPort — the
// single-channel fast path (the DDR4 preset), with no routing between
// the core and the controller's request pool. Requests flow through the
// controller's internal request pool, so the per-access path allocates
// nothing.
type port struct {
	mc   *memctrl.Controller
	core int
}

func (p port) Read(addr uint64, done func(uint64), cycle uint64) bool {
	return p.mc.Read(addr, p.core, done, cycle)
}

func (p port) Write(addr uint64, cycle uint64) bool {
	return p.mc.Write(addr, p.core, cycle)
}

// chanPort is port for a multi-channel machine: it routes each access
// to its (pseudo) channel's controller with the channel bits folded out
// of the address.
type chanPort struct {
	m    *machine
	core int
}

func (p chanPort) Read(addr uint64, done func(uint64), cycle uint64) bool {
	ch, a := p.m.route(addr)
	return p.m.mcs[ch].Read(a, p.core, done, cycle)
}

func (p chanPort) Write(addr uint64, cycle uint64) bool {
	ch, a := p.m.route(addr)
	return p.m.mcs[ch].Write(a, p.core, cycle)
}

// generatorFor builds the trace generator for one core slot; uncached
// marks clflush-style attacker cores whose accesses bypass the LLC.
// nchan is the system's (pseudo) channel count — it widens the stride
// between consecutive rows of one bank in the interleaved address
// space.
func (c *Config) generatorFor(mcCfg memctrl.Config, nchan, slot int, name string) (gen cpu.Generator, uncached bool, err error) {
	base := uint64(slot) << 34
	// One MC row spans this many bytes of the MOP-interleaved address
	// space before the row index increments within a bank.
	rowSpan := uint64(mcCfg.MOPWidth) * 64 * uint64(mcCfg.BankGroups*mcCfg.BanksPerGroup*mcCfg.Ranks) * uint64(nchan) *
		uint64(mcCfg.RowBytes/64/mcCfg.MOPWidth)
	switch name {
	case "attack:hydra":
		count := uint64(2 * hydra.RCCEntries)
		if max := uint64(mcCfg.RowsPerBank / 2); count > max {
			count = max
		}
		return &trace.RowCycler{Base: base, Stride: rowSpan, Count: count}, true, nil
	case "attack:rrs":
		return &trace.PairHammer{A: base, B: base + 4*rowSpan}, true, nil
	default:
		w, ok := trace.ByName(name)
		if !ok {
			return nil, false, fmt.Errorf("sim: unknown workload %q", name)
		}
		return trace.NewSynth(w, base, c.Seed+uint64(slot)*977), false, nil
	}
}

// machine is one assembled simulation — the per-channel controllers,
// the cores, and the security tracker — ready to be driven to
// completion by either engine loop. Tests reach into it to assert
// per-core invariants the folded Result cannot express (exact finish
// cycles, measurement-region accounting).
type machine struct {
	mcs     []*memctrl.Controller // one per (pseudo) channel
	cores   []*cpu.Core
	tracker *secTracker
	ticks   uint64 // simulated cycles actually ticked by the driver loop

	// Flight-recorder state. The engine counters are plain fields on the
	// per-run machine (zeroed by construction), incremented only on the
	// idle-jump path, so they cost the hot loop nothing measurable. rec
	// is the attached recorder — nil on the unrecorded paths, where the
	// only residue is one predictable nil check per ticked cycle.
	obs       obs.EngineCounters
	rec       *obs.Recorder
	measuring bool // every core has entered its measurement region

	// Channel routing fields (unused when nchan == 1 — the DDR4 preset
	// binds cores straight to mcs[0] through port).
	nchan      uint64
	mopWidth   uint64
	chanStride uint64 // banks per channel: BankGroups*BanksPerGroup*Ranks
}

// route maps a flat physical address to its (pseudo) channel and the
// channel-local address that channel's controller decodes. The channel
// bits sit between the rank and column-high fields of the MOP mapping,
// so consecutive MOP groups interleave across bank groups, banks, and
// ranks within a channel before spilling to the next channel.
func (m *machine) route(addr uint64) (int, uint64) {
	low := addr & 63
	blk := addr >> 6
	mop := blk % m.mopWidth
	q := blk / m.mopWidth
	pre := q % m.chanStride
	q /= m.chanStride
	ch := int(q % m.nchan)
	q /= m.nchan
	blk = (q*m.chanStride+pre)*m.mopWidth + mop
	return ch, blk<<6 | low
}

// chanTracker adapts a channel-local controller to the system-wide
// security tracker by offsetting bank and rank indices. Channel 0 skips
// the adapter and reports straight into the tracker.
type chanTracker struct {
	t       *secTracker
	bankOff int
	rankOff int
}

func (ct chanTracker) OnAct(bank, row int, cycle uint64) { ct.t.OnAct(ct.bankOff+bank, row, cycle) }
func (ct chanTracker) OnPre(bank, row int, on uint64)    { ct.t.OnPre(ct.bankOff+bank, row, on) }
func (ct chanTracker) OnRefresh(rank, firstRow, count int) {
	ct.t.OnRefresh(ct.rankOff+rank, firstRow, count)
}
func (ct chanTracker) OnRowsSwapped(bank, a, b int) { ct.t.OnRowsSwapped(ct.bankOff+bank, a, b) }

// chanThresholds shifts a channel-local bank index into the system-wide
// per-bank threshold tables (Svärd profiles every bank of the system).
// Channel 0 queries the thresholds directly.
type chanThresholds struct {
	th  core.Thresholds
	off int
}

func (ct chanThresholds) ActivationBudget(bank, row int) float64 {
	return ct.th.ActivationBudget(ct.off+bank, row)
}

func (ct chanThresholds) MinBudget() float64 { return ct.th.MinBudget() }

// newMachine builds the simulated system of cfg from fresh allocations.
func newMachine(cfg Config) (*machine, error) { return buildMachine(cfg, nil) }

// poolState is one worker's reusable simulation arena: the per-channel
// controllers (with the DRAM systems, queues, and per-row tables
// inside), the cores (windows, LLCs, MSHR records), the security
// tracker's accrual table, and one instance of each defense type seen
// so far (keyed per channel — defenses hold per-bank state sized to
// their channel). buildMachine Reset()s each piece to its exactly-fresh
// state instead of reallocating, so a sweep executes cells
// allocation-flat after its first few cells warm the arena — including
// sweeps that alternate backends, since every Reset resizes to the
// requested geometry.
type poolState struct {
	mcs      []*memctrl.Controller
	cores    []*cpu.Core
	tracker  *secTracker
	defenses map[string]mitigation.Defense
}

// buildMachine builds the simulated system of cfg, reusing st's
// allocations when non-nil. The pooled and fresh paths are bit-identical
// by construction — every component's Reset restores the state its
// constructor produces — and the pooled differential tests enforce it.
func buildMachine(cfg Config, st *poolState) (*machine, error) {
	if cfg.Cores <= 0 || len(cfg.Mix) != cfg.Cores {
		return nil, fmt.Errorf("sim: mix has %d entries for %d cores", len(cfg.Mix), cfg.Cores)
	}
	backend, err := dram.BackendByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	if err := backend.Validate(); err != nil {
		return nil, err
	}
	nchan := backend.Geom.TotalChannels()
	mcCfg := memctrl.ConfigFor(backend.Geom, cfg.RowsPerBank, cfg.CPUGHz)
	banksPerChan := mcCfg.Ranks * mcCfg.BankGroups * mcCfg.BanksPerGroup
	banks := nchan * banksPerChan

	entry, err := buildModule(cfg.ModuleLabel, cfg.RowsPerBank, cfg.CellsPerRow, banks, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mod, prof := entry.mod, entry.prof
	scaled := prof.ScaledTo(cfg.NRH)

	var th core.Thresholds
	if cfg.Svard {
		sv, err := core.New(scaled)
		if err != nil {
			return nil, err
		}
		th = sv
	} else {
		th = core.Fixed(cfg.NRH)
	}

	timing := mem.CyclesFrom(backend.Timing(mod.Spec.FreqMTs), cfg.CPUGHz)
	if cfg.WindowScale > 1 {
		// Shrink the refresh window (and with it every defense's
		// counting window and the per-REF restore slice) so short runs
		// cover representative window dynamics.
		timing.REFW = uint64(float64(timing.REFW) / cfg.WindowScale)
		if timing.REFW < 4*timing.REFI {
			timing.REFW = 4 * timing.REFI
		}
	}
	defName := strings.ToLower(cfg.Defense)

	model := disturb.NewModel(mod.Params, mod.Geom)
	var tracker *secTracker
	if st != nil && st.tracker != nil {
		tracker = st.tracker
		tracker.reset(model, entry.hcBase, entry.psi, scaled.Factor, cfg.CPUGHz, banks, mcCfg.BankGroups*mcCfg.BanksPerGroup)
	} else {
		tracker = newSecTracker(model, entry.hcBase, entry.psi, scaled.Factor, cfg.CPUGHz, banks, mcCfg.BankGroups*mcCfg.BanksPerGroup)
	}
	if st != nil {
		st.tracker = tracker
	}
	if cfg.Temporal != nil {
		if err := cfg.Temporal.Validate(); err != nil {
			return nil, err
		}
		tracker.startTemporal(temporal.NewProcess(*cfg.Temporal, cfg.Seed), cfg.Temporal.EpochCycles)
	}

	var mcs []*memctrl.Controller
	if st != nil && cap(st.mcs) >= nchan {
		mcs = st.mcs[:nchan]
	} else {
		mcs = make([]*memctrl.Controller, nchan)
		if st != nil {
			copy(mcs, st.mcs)
		}
	}
	if st != nil {
		st.mcs = mcs
	}
	m := &machine{mcs: mcs, tracker: tracker}
	if nchan > 1 {
		m.nchan = uint64(nchan)
		m.mopWidth = uint64(mcCfg.MOPWidth)
		m.chanStride = uint64(banksPerChan)
	}
	for ch := 0; ch < nchan; ch++ {
		// Each (pseudo) channel runs its own controller and defense
		// instance over its slice of the global bank space. Channel 0
		// uses the unwrapped tracker, thresholds, key, and seed, so the
		// single-channel DDR4 preset is bit- and allocation-identical to
		// the pre-backend system.
		si := mitigation.SystemInfo{
			Banks:       banksPerChan,
			RowsPerBank: cfg.RowsPerBank,
			REFWCycles:  timing.REFW,
			Seed:        cfg.Seed,
		}
		chTh := th
		var chTr memctrl.Tracker = tracker
		key := defName
		if ch > 0 {
			// Decorrelate per-channel probabilistic defenses (PARA) the
			// same way a real system's independent controllers would be.
			si.Seed = cfg.Seed + uint64(ch)*0x9E3779B97F4A7C15
			chTh = chanThresholds{th: th, off: ch * banksPerChan}
			chTr = chanTracker{t: tracker, bankOff: ch * banksPerChan, rankOff: ch * mcCfg.Ranks}
			key = defName + "#" + strconv.Itoa(ch)
		}
		var prev mitigation.Defense
		if st != nil {
			prev = st.defenses[key]
		}
		def, err := buildDefense(cfg.Defense, si, chTh, cfg.CPUGHz, prev)
		if err != nil {
			return nil, err
		}
		if st != nil {
			st.defenses[key] = def
		}
		if mcs[ch] != nil {
			mcs[ch].Reset(mcCfg, timing, def, chTr)
		} else {
			mcs[ch] = memctrl.New(mcCfg, timing, def, chTr)
		}
	}

	var cores []*cpu.Core
	if st != nil && cap(st.cores) >= cfg.Cores {
		cores = st.cores[:cfg.Cores]
	} else {
		cores = make([]*cpu.Core, cfg.Cores)
		if st != nil {
			copy(cores, st.cores)
		}
	}
	for i := range cores {
		gen, uncached, err := cfg.generatorFor(mcCfg, nchan, i, cfg.Mix[i])
		if err != nil {
			return nil, err
		}
		coreCfg := cfg.Core
		coreCfg.Uncached = uncached
		var mp cpu.MemPort
		if nchan > 1 {
			mp = chanPort{m: m, core: i}
		} else {
			mp = port{mc: mcs[0], core: i}
		}
		if cores[i] == nil {
			cores[i] = cpu.New(i, coreCfg, gen, mp)
		} else {
			cores[i].Reset(i, coreCfg, gen, mp)
		}
		cores[i].WarmupTarget = cfg.WarmupPerCore
		cores[i].MeasureTarget = cfg.InstrPerCore
	}
	if st != nil {
		st.cores = cores
	}
	m.cores = cores
	return m, nil
}

// runNaive is the per-cycle reference loop: tick the controller and
// every core on every CPU cycle. It ends at the exact cycle the last
// core finishes (no polling granularity) and returns that cycle with
// finished=true, or (maxCycles, false) on a truncated run.
func (m *machine) runNaive(maxCycles uint64) (uint64, bool) {
	remaining := len(m.cores)
	for cycle := uint64(0); cycle < maxCycles; cycle++ {
		m.ticks++
		m.tracker.tickEpoch(cycle)
		for _, mc := range m.mcs {
			mc.TickFull(cycle)
		}
		for _, c := range m.cores {
			was := c.Finished()
			c.Tick(cycle)
			if !was && c.Finished() {
				remaining--
			}
		}
		if m.rec != nil && !m.measuring {
			m.noteMeasuring()
		}
		if remaining == 0 {
			return cycle, true
		}
	}
	return maxCycles, false
}

// runSkip is the event-driven engine: it performs exactly the ticks of
// runNaive that do something and jumps over the rest. After a cycle in
// which neither the controller nor any core made progress, every ready
// time in the system is frozen, so the next cycle anything can happen
// is the minimum of the components' NextEvent bounds — the driver
// advances straight to it. Cycles where any component was active
// advance by one, like the reference loop, because activity (an issued
// command, a retired instruction, an enqueue) can enable any other
// component on the very next cycle. The two loops are bit-identical by
// construction; the differential tests in engine_diff_test.go enforce
// it across every defense, attack mix, and Svärd setting.
func (m *machine) runSkip(maxCycles uint64) (uint64, bool) {
	remaining := len(m.cores)
	cycle := uint64(0)
	for cycle < maxCycles {
		m.ticks++
		m.tracker.tickEpoch(cycle)
		active := false
		for _, mc := range m.mcs {
			if mc.Tick(cycle) {
				active = true
			}
		}
		for _, c := range m.cores {
			was := c.Finished()
			if c.Tick(cycle) {
				active = true
			}
			if !was && c.Finished() {
				remaining--
			}
		}
		if m.rec != nil && !m.measuring {
			m.noteMeasuring()
		}
		if remaining == 0 {
			return cycle, true
		}
		if active {
			m.obs.ActiveTicks++
			cycle++
			continue
		}
		// The tracker's next epoch edge bounds the jump too: live
		// thresholds change at the edge, so skipping across it could
		// misclassify a violation. MaxUint64 when static. bound tracks
		// which component's NextEvent set the jump target (ties keep the
		// earlier source, matching the scan order).
		next := m.tracker.NextEvent(cycle)
		bound := &m.obs.BoundTracker
		for _, mc := range m.mcs {
			if n := mc.NextEvent(cycle); n < next {
				next = n
				bound = &m.obs.BoundController
			}
		}
		for _, c := range m.cores {
			if n := c.NextEvent(cycle); n < next {
				next = n
				bound = &m.obs.BoundCore
			}
		}
		if next <= cycle {
			next = cycle + 1
		}
		if next > maxCycles {
			next = maxCycles // quiescent to the horizon: truncate
			bound = &m.obs.BoundHorizon
		}
		m.obs.SkipJumps++
		m.obs.SkippedCycles += next - (cycle + 1)
		*bound += 1
		cycle = next
	}
	return maxCycles, false
}

// result folds the machine's final state into a Result. endCycle is the
// cycle the run stopped at: the last core's finish cycle, or MaxCycles
// when truncated.
func (m *machine) result(cfg Config, endCycle uint64, finished bool) Result {
	res := Result{
		IPC:        make([]float64, len(m.cores)),
		Cycles:     endCycle,
		MC:         m.mcs[0].Stats,
		Violations: m.tracker.Violations,
		Finished:   finished,
	}
	for _, mc := range m.mcs[1:] {
		res.MC.Add(mc.Stats)
	}
	for i, c := range m.cores {
		switch {
		case c.Finished():
			res.IPC[i] = c.IPC()
		case c.Started() && endCycle > c.StartCycle():
			// Truncated run: report measurement-region progress only,
			// consistent with Core.IPC — warmup instructions and warmup
			// cycles are excluded. A core still in warmup reports 0.
			res.IPC[i] = float64(c.Retired-c.WarmupTarget) / float64(endCycle-c.StartCycle())
		}
	}
	return res
}

// noteMeasuring flips the attached recorder from the warmup phase to
// the run phase on the first ticked cycle where every core has entered
// its measurement region. Only called while a recorder is attached and
// the flip is still pending.
func (m *machine) noteMeasuring() {
	for _, c := range m.cores {
		if !c.Started() {
			return
		}
	}
	m.rec.End(obs.PhaseWarmup)
	m.rec.Begin(obs.PhaseRun)
	m.measuring = true
}

// foldObs folds the machine's engine counters and every controller's
// counters into the attached recorder (no-op when none is attached).
func (m *machine) foldObs() {
	if m.rec == nil {
		return
	}
	m.obs.Ticks = m.ticks
	m.obs.EpochAdvances = m.tracker.epochAdvances()
	m.obs.LiveDraws = m.tracker.liveDraws()
	c := &m.rec.Counters
	c.EngineCounters.Add(m.obs)
	for _, mc := range m.mcs {
		c.ControllerCounters.Add(mc.Obs)
		// The throttle counter lives in Stats (it predates the flight
		// recorder and is part of cached Results); mirror it here so the
		// obs counter set is self-contained.
		c.ThrottleStalls += mc.Stats.ThrottleStalls
	}
}

// run drives a built machine to completion and folds the Result.
func (m *machine) run(cfg Config) Result {
	m.rec.Begin(obs.PhaseWarmup)
	var cycle uint64
	var finished bool
	if cfg.NoSkip {
		cycle, finished = m.runNaive(cfg.MaxCycles)
	} else {
		cycle, finished = m.runSkip(cfg.MaxCycles)
	}
	if m.rec != nil {
		if !m.measuring {
			// Truncated before every core entered measurement: close the
			// warmup span here so the timeline stays well-formed.
			m.rec.End(obs.PhaseWarmup)
			m.rec.Begin(obs.PhaseRun)
		}
		m.rec.End(obs.PhaseRun)
	}
	m.rec.Begin(obs.PhaseFold)
	res := m.result(cfg, cycle, finished)
	m.foldObs()
	m.rec.End(obs.PhaseFold)
	return res
}

// runOn is the one body behind every entry point below: build the
// machine (on arena st, or from fresh allocations when st is nil), drive
// it to completion, fold the Result. rec may be nil — every Recorder
// method is nil-receiver safe — and the Result is bit-identical either
// way: the recorder observes, it never steers.
func runOn(st *poolState, cfg Config, rec *obs.Recorder) (Result, error) {
	rec.Begin(obs.PhaseBuild)
	m, err := buildMachine(cfg, st)
	rec.End(obs.PhaseBuild)
	if err != nil {
		return Result{}, err
	}
	m.rec = rec
	return m.run(cfg), nil
}

// Run executes one simulation from fresh allocations.
func Run(cfg Config) (Result, error) { return runOn(nil, cfg, nil) }

// RunRecorded is Run with a flight recorder attached: the run's engine
// and controller counters fold into rec.Counters, and the build,
// warmup, run, and fold phases are stamped onto rec. A nil rec makes
// this exactly Run.
func RunRecorded(cfg Config, rec *obs.Recorder) (Result, error) { return runOn(nil, cfg, rec) }

// arenaPool executes simulations on reusable state arenas. A paper-scale
// sweep rebuilds its multi-megabyte simulator (LLC arrays, tracker
// accrual tables, defense counters, controller queues) hundreds of
// times; the pool Reset()s one arena per worker instead, so cells
// execute allocation-flat once the arenas are warm. Results are
// bit-identical to Run for every configuration — each component's Reset
// restores the exact state its constructor produces, and the pooled
// differential tests (pool_test.go) enforce it, including reuse across
// different geometries and after truncated runs.
//
// An arenaPool is safe for concurrent use: arenas are handed out through
// a sync.Pool, so concurrent runs never share one (idle arenas remain
// collectable under memory pressure).
type arenaPool struct {
	p sync.Pool
}

// run is RunRecorded on a pooled arena. Allocation-flat: the recorder is
// caller-owned, the counters are plain fields, and the phase stamps
// write into a fixed array.
func (p *arenaPool) run(cfg Config, rec *obs.Recorder) (Result, error) {
	st, _ := p.p.Get().(*poolState)
	if st == nil {
		st = &poolState{defenses: make(map[string]mitigation.Defense)}
	}
	// The arena stays reusable after a failed build: every Reset fully
	// reinitializes, regardless of how far the build got.
	defer p.p.Put(st)
	return runOn(st, cfg, rec)
}

// defaultPool backs PooledRun: one process-wide arena pool shared by
// every sweep, so consecutive sweeps (and benchmark iterations) stay
// warm.
var defaultPool arenaPool

// PooledRun is Run on the process-wide state pool — the default
// executor of every sweep and of the campaign cell path
// (campaign.Cell). Bit-identical to Run.
func PooledRun(cfg Config) (Result, error) { return defaultPool.run(cfg, nil) }

// PooledRunRecorded is RunRecorded on the process-wide state pool.
func PooledRunRecorded(cfg Config, rec *obs.Recorder) (Result, error) {
	return defaultPool.run(cfg, rec)
}
