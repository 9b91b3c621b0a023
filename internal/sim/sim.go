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
	"math"
	"strings"
	"sync"

	"svard/internal/core"
	"svard/internal/cpu"
	"svard/internal/disturb"
	"svard/internal/dram"
	"svard/internal/exec"
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
	Cores  int // each one Table 4's core (cpu.DefaultConfig)

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

// Limits on what one Config makes a build allocate or a run iterate,
// each above the paper's scale (Table 4: 128K rows of 8 KiB per bank).
const (
	maxRowsPerBank = 1 << 18
	maxCellsPerRow = 1 << 20
	// maxEpochs bounds a temporal run's in-run epochs, MaxCycles over
	// the epoch length: a live threshold draw costs O(epochs elapsed).
	maxEpochs = 1 << 16
)

// Validate checks the configuration's named presets — the memory
// backend and the temporal process — the scalars every cycle conversion
// and threshold divides by (the CPU clock, nRH, the refresh-window
// scale), and the limits above, without building anything. The campaign
// spec validator, the server's submit and compute paths, and newLayout
// call it, so an invalid input is a descriptive error (HTTP 400), never
// a panic inside a worker, a run that cannot progress, or a silently
// wrong figure.
func (c *Config) Validate() error {
	if !positiveFinite(c.CPUGHz) {
		return fmt.Errorf("sim: CPUGHz is %v, want a positive finite clock", c.CPUGHz)
	}
	if !positiveFinite(c.NRH) {
		return fmt.Errorf("sim: NRH is %v, want a positive finite threshold", c.NRH)
	}
	if math.IsNaN(c.WindowScale) || math.IsInf(c.WindowScale, 0) {
		return fmt.Errorf("sim: WindowScale is %v, want a finite scale", c.WindowScale)
	}
	if c.MaxCycles == 0 {
		return fmt.Errorf("sim: MaxCycles is 0, want at least one cycle")
	}
	for _, f := range []struct {
		name    string
		v, l, h int
	}{
		{"RowsPerBank", c.RowsPerBank, 64, maxRowsPerBank},
		{"CellsPerRow", c.CellsPerRow, 1, maxCellsPerRow},
	} {
		if f.v < f.l || f.v > f.h {
			return fmt.Errorf("sim: %s is %d, want %d..%d", f.name, f.v, f.l, f.h)
		}
	}
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
		return checkEpochs(c.MaxCycles, c.Temporal.EpochCycles)
	}
	return nil
}

// checkEpochs bounds the in-run epochs a run of maxCycles spans.
func checkEpochs(maxCycles, epochCycles uint64) error {
	if n := maxCycles / epochCycles; n > maxEpochs {
		return fmt.Errorf("sim: MaxCycles %d over Temporal.EpochCycles %d is %d epochs, want at most %d",
			maxCycles, epochCycles, n, maxEpochs)
	}
	return nil
}

// positiveFinite reports whether x is a usable clock or threshold.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Result summarizes one simulation.
type Result struct {
	IPC        []float64
	Cycles     uint64
	MC         memctrl.Stats
	Violations uint64
	Finished   bool
}

// moduleTable memoizes calibrated modules and captured profiles, which
// are reused across the hundreds of runs of an experiment sweep. It is
// singleflight-style: each entry carries its own sync.Once and builds
// outside the table's lock, so concurrent workers building *distinct*
// modules calibrate in parallel, while duplicate requests for the same
// key coalesce onto one build (holding the lock across the build would
// serialize the entire parallel sweep behind the expensive
// calibration and table pass). A lookup that finds its entry allocates
// nothing. The zero value is an empty table.
type moduleTable struct {
	mu      sync.Mutex
	entries map[moduleKey]*moduleEntry
	pop     []moduleKey // the resident population modules, oldest first
}

// moduleKey identifies a calibrated module: its label, scaled geometry
// and seed.
type moduleKey struct {
	label              string
	rows, cells, banks int
	seed               uint64
}

// moduleEntry is one calibrated module and what build derives from it
// in one pass over its banks, fanned out over exec.Map: each bank's
// HCfirst from the model's bank-at-a-time form (the regular field drawn
// once per module, the bank term once per bank), its psi, and its
// profile bins binned from that HCfirst. Every value is bit for bit the
// scalar model's (TestModuleTablesMatchModel).
type moduleEntry struct {
	once sync.Once
	mod  *profile.Module
	prof *profile.ScaledProfile // the captured profile, unscaled: it carries the worst case
	// Per-row tables the security tracker reads at high rate, derived
	// once from the disturbance model (they cost an exp/log chain per
	// row and depend only on the module): the unscaled true HCfirst and
	// the RowPress susceptibility psi, flattened to [bank*rows+row].
	// Deliberate trade: eager (16 B/row — 4 MB per module at the default
	// 8K rows, ~67 MB at the paper's 128K) in exchange for hundreds of
	// sweep runs skipping the per-run, per-touched-row rederivation. A
	// Table 5 module stays in its table; a synthetic population module
	// is one of many, each run for a few cells, so at most
	// maxResidentPopModules of those stay.
	hcBase []float64
	psi    []float64
	err    error
}

// maxResidentPopModules caps the synthetic population modules
// ("pop:<seed>:<index>") a module table holds, whichever route their
// cells arrive by — a population sweep, a compute batch, the fabric
// coordinator's local fallback. A sweep dispatches its jobs module-major
// with at most Workers in flight, so only the last few modules it
// admitted are still being simulated when one is evicted. Eviction is
// only a cache hint: an in-flight run holding the entry pointer keeps
// using it, and a later request for an evicted module rebuilds it.
const maxResidentPopModules = 16

// get returns the calibrated module of key, building it on first use.
func (t *moduleTable) get(key moduleKey) (*moduleEntry, error) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		if t.entries == nil {
			t.entries = make(map[moduleKey]*moduleEntry)
		}
		e = &moduleEntry{}
		t.entries[key] = e
		if strings.HasPrefix(key.label, population.LabelPrefix) {
			t.pop = append(t.pop, key)
			for len(t.pop) > maxResidentPopModules {
				delete(t.entries, t.pop[0])
				t.pop = t.pop[1:]
			}
		}
	}
	t.mu.Unlock()
	e.once.Do(func() { e.build(key) })
	return e, e.err
}

// build calibrates key's module, then fills its per-row tables and
// profile in one parallel pass over the banks.
func (e *moduleEntry) build(key moduleKey) {
	label, rows, banks := key.label, key.rows, key.banks
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
	m, err := profile.BuildScaled(spec, key.seed, rows, key.cells)
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
	model := m.NewModel()
	prof := profile.NewEmpty(label, rows, all, disturb.HammerLevels())
	reg := model.RegularRows(1)
	e.hcBase = make([]float64, banks*rows)
	e.psi = make([]float64, banks*rows)
	if _, err := exec.Map(0, banks, func(b int) (struct{}, error) {
		hc, psi := e.hcBase[b*rows:(b+1)*rows], e.psi[b*rows:(b+1)*rows]
		model.HCFirstBank(hc, reg, b, 1)
		for r := range psi {
			psi[r] = model.PressPsi(b, r)
		}
		prof.SetHCFirst(b, hc)
		return struct{}{}, nil
	}); err != nil {
		e.err = err
		return
	}
	e.prof = prof.Unscaled()
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

// chanPort is a core's MemPort: it routes each access to its (pseudo)
// channel's controller with the channel bits folded out of the address.
// Requests flow through the controller's internal request pool, so the
// per-access path allocates nothing.
type chanPort struct {
	m    *machine
	core int
}

func (p *chanPort) Read(addr uint64, mshr int, cycle uint64) bool {
	ch, a := p.m.route(addr)
	return p.m.mcs[ch].ReadFill(a, p.core, mshr, cycle)
}

func (p *chanPort) Write(addr uint64, cycle uint64) bool {
	ch, a := p.m.route(addr)
	return p.m.mcs[ch].Write(a, p.core, cycle)
}

// generatorFor builds the trace generator for one core slot; uncached
// marks clflush-style attacker cores whose accesses bypass the LLC.
// nchan is the system's (pseudo) channel count — it widens the stride
// between consecutive rows of one bank in the interleaved address
// space.
func (c *Config) generatorFor(mcCfg memctrl.Config, nchan, slot int, name string) (gen generator, uncached bool, err error) {
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

// generator is a core's trace: the stream the core draws, and its
// position in it, which a twin's checkpoint saves (twin.go).
type generator interface {
	cpu.Generator
	trace.Seeker
}

// machine is one assembled simulation — the per-channel controllers,
// the cores, and the security tracker — ready to be driven to
// completion by either engine loop. Tests reach into it to assert
// per-core invariants the folded Result cannot express (exact finish
// cycles, measurement-region accounting).
type machine struct {
	mcs     []*memctrl.Controller // one per (pseudo) channel
	cores   []*cpu.Core
	gens    []generator // each core's trace
	tracker *secTracker
	ticks   uint64 // simulated cycles actually ticked by the driver loop

	// Checkpoints (twin.go). start is the cycle runSkip begins at: 0, or
	// the checkpoint a diverged cell resumed from. saveAt is the next
	// cycle boundary at which a recording twin saves its machine;
	// math.MaxUint64 when it records none.
	start  uint64
	saveAt uint64

	// Flight-recorder state. The engine counters are plain fields on the
	// per-run machine (zeroed by construction), incremented only on the
	// idle-jump path, so they cost the hot loop nothing measurable. rec
	// is the attached recorder — nil on the unrecorded paths, where the
	// only residue is one predictable nil check per ticked cycle.
	obs       obs.EngineCounters
	rec       *obs.Recorder
	measuring bool // every core has entered its measurement region

	// route's fields.
	nchan      uint64
	mopWidth   uint64
	chanStride uint64 // banks per channel: BankGroups*BanksPerGroup*Ranks
}

// Complete implements memctrl.Filler: a read a core's port enqueued
// completes through the machine the controller belongs to.
func (m *machine) Complete(core, mshr int, cycle uint64) { m.cores[core].Complete(mshr, cycle) }

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
// security tracker by offsetting bank and rank indices.
type chanTracker struct {
	t       *secTracker
	bankOff int
	rankOff int
}

func (ct *chanTracker) OnAct(bank, row int, cycle uint64) { ct.t.OnAct(ct.bankOff+bank, row, cycle) }
func (ct *chanTracker) OnPre(bank, row int, on uint64)    { ct.t.OnPre(ct.bankOff+bank, row, on) }
func (ct *chanTracker) OnRefresh(rank, firstRow, count int) {
	ct.t.OnRefresh(ct.rankOff+rank, firstRow, count)
}
func (ct *chanTracker) OnRowsSwapped(bank, a, b int) { ct.t.OnRowsSwapped(ct.bankOff+bank, a, b) }

// chanThresholds shifts a channel-local bank index into the system-wide
// per-bank threshold tables (Svärd profiles every bank of the system).
type chanThresholds struct {
	th  core.Thresholds
	off int
}

func (ct *chanThresholds) ActivationBudget(bank, row int) float64 {
	return ct.th.ActivationBudget(ct.off+bank, row)
}

func (ct *chanThresholds) MinBudget() float64 { return ct.th.MinBudget() }

// poolState is one worker's reusable simulation arena: the machine
// itself, the per-channel controllers (with the DRAM systems, queues,
// and per-row tables inside), the cores (windows, LLCs, MSHR records),
// the security tracker's accrual table, one instance of each defense
// type seen so far per channel (defenses hold per-bank state sized to
// their channel), and the adapters that bind them: each channel's view
// of the tracker and of the thresholds, and each core's port. Controllers,
// defenses, and cores hold pointers to these slots. arm and assemble
// Reset() each piece to its exactly-fresh state instead of reallocating,
// so a sweep executes cells allocation-flat after its first few cells
// warm the arena — including sweeps that alternate backends, since every
// Reset resizes to the requested geometry.
type poolState struct {
	m        machine
	mcs      []*memctrl.Controller
	cores    []*cpu.Core
	gens     []generator
	tracker  *secTracker
	defenses map[defenseKey]mitigation.Defense
	defs     []mitigation.Defense // the current cell's defense per channel (layout.arm)
	ths      []chanThresholds     // per channel
	trs      []chanTracker        // per channel
	ports    []chanPort           // per core
}

// defenseKey names a pooled defense instance: its type and channel.
type defenseKey struct {
	name string
	ch   int
}

// newPoolState returns an empty arena: building on it constructs every
// component from fresh allocations.
func newPoolState() *poolState {
	return &poolState{defenses: make(map[defenseKey]mitigation.Defense)}
}

// resize returns s with length n, reallocating only when its capacity is
// short. Pointers into the old array stay valid, so components built in
// an earlier cell keep working until their next Reset rebinds them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, n), s...)
	}
	return s[:n]
}

// layout is what a build derives from a Config before it touches an
// arena: the backend geometry and timing, the calibrated module, and the
// thresholds the defenses read. A machine is built in two halves over
// it — arm (the security tracker and the defenses) then assemble (the
// controllers and the cores) — so a twin replay (twin.go) can drive the
// armed half alone and re-arm it when it has to simulate after all.
type layout struct {
	cfg          Config
	nchan        int
	banksPerChan int
	mcCfg        memctrl.Config
	timing       mem.Timing
	entry        *moduleEntry
	model        *disturb.Model
	factor       float64 // profile scaling factor: the tracker's truth at cfg.NRH
	th           core.Thresholds
}

// newLayout validates cfg and derives its layout over the calibrated
// modules of mods; it is where a bad input surfaces as an error before
// any cycle conversion divides by it.
func newLayout(cfg Config, mods *moduleTable) (layout, error) {
	if cfg.Cores <= 0 || len(cfg.Mix) != cfg.Cores {
		return layout{}, fmt.Errorf("sim: mix has %d entries for %d cores", len(cfg.Mix), cfg.Cores)
	}
	if err := cfg.Validate(); err != nil {
		return layout{}, err
	}
	backend, err := dram.BackendByName(cfg.Backend)
	if err != nil {
		return layout{}, err
	}
	l := layout{cfg: cfg, nchan: backend.Geom.TotalChannels()}
	l.mcCfg = memctrl.ConfigFor(backend.Geom, cfg.RowsPerBank, cfg.CPUGHz)
	l.banksPerChan = l.mcCfg.Ranks * l.mcCfg.BankGroups * l.mcCfg.BanksPerGroup

	l.entry, err = mods.get(moduleKey{cfg.ModuleLabel, cfg.RowsPerBank, cfg.CellsPerRow, l.nchan * l.banksPerChan, cfg.Seed})
	if err != nil {
		return layout{}, err
	}
	mod := l.entry.mod
	scaled := l.entry.prof.ScaledTo(cfg.NRH)
	l.factor = scaled.Factor
	if cfg.Svard {
		sv, err := core.New(scaled)
		if err != nil {
			return layout{}, err
		}
		l.th = sv
	} else {
		l.th = core.Fixed(cfg.NRH)
	}

	l.timing = mem.CyclesFrom(backend.Timing(mod.Spec.FreqMTs), cfg.CPUGHz)
	if cfg.WindowScale > 1 {
		// Shrink the refresh window (and with it every defense's
		// counting window and the per-REF restore slice) so short runs
		// cover representative window dynamics.
		l.timing.REFW = uint64(float64(l.timing.REFW) / cfg.WindowScale)
		if l.timing.REFW < 4*l.timing.REFI {
			l.timing.REFW = 4 * l.timing.REFI
		}
	}
	l.model = disturb.NewModel(mod.Params, mod.Geom)
	return l, nil
}

// arm resets the security half of arena st to the state a fresh build
// produces: the tracker, and one defense per (pseudo) channel in
// st.defs. Calling it again re-arms from scratch.
func (l *layout) arm(st *poolState) error {
	l.armTracker(st)
	return l.armDefenses(st)
}

// armTracker resets arena st's security tracker, with cfg's temporal
// process attached: all a stream replay (twin.go) arms.
func (l *layout) armTracker(st *poolState) {
	cfg := &l.cfg
	banks := l.nchan * l.banksPerChan
	perRank := l.mcCfg.BankGroups * l.mcCfg.BanksPerGroup
	if st.tracker != nil {
		st.tracker.reset(l.model, l.entry.hcBase, l.entry.psi, l.factor, cfg.CPUGHz, banks, perRank)
	} else {
		st.tracker = newSecTracker(l.model, l.entry.hcBase, l.entry.psi, l.factor, cfg.CPUGHz, banks, perRank)
	}
	if cfg.Temporal != nil {
		st.tracker.startTemporal(temporal.NewProcess(*cfg.Temporal, cfg.Seed), cfg.Temporal.EpochCycles)
	}
}

// armDefenses resets arena st's defenses: one per (pseudo) channel in
// st.defs, each reading its channel's slice of the thresholds.
func (l *layout) armDefenses(st *poolState) error {
	cfg := &l.cfg
	defName := strings.ToLower(cfg.Defense)
	st.defs = resize(st.defs, l.nchan)
	st.ths = resize(st.ths, l.nchan)
	for ch := range st.defs {
		// Each (pseudo) channel runs its own defense instance over its
		// slice of the global bank space, seeded apart to decorrelate
		// per-channel probabilistic defenses (PARA) the same way a real
		// system's independent controllers would be.
		si := mitigation.SystemInfo{
			Banks:       l.banksPerChan,
			RowsPerBank: cfg.RowsPerBank,
			REFWCycles:  l.timing.REFW,
			Seed:        cfg.Seed + uint64(ch)*0x9E3779B97F4A7C15,
		}
		st.ths[ch] = chanThresholds{th: l.th, off: ch * l.banksPerChan}
		key := defenseKey{defName, ch}
		def, err := buildDefense(cfg.Defense, si, &st.ths[ch], cfg.CPUGHz, st.defenses[key])
		if err != nil {
			return err
		}
		st.defenses[key] = def
		st.defs[ch] = def
	}
	return nil
}

// assemble builds the rest of the machine on arena st around the armed
// tracker and defenses: one controller per (pseudo) channel, then the
// cores, each bound to the arena's machine through its port.
func (l *layout) assemble(st *poolState) (*machine, error) {
	cfg := &l.cfg
	st.mcs = resize(st.mcs, l.nchan)
	st.trs = resize(st.trs, l.nchan)
	m := &st.m
	*m = machine{
		mcs:        st.mcs,
		tracker:    st.tracker,
		saveAt:     math.MaxUint64,
		nchan:      uint64(l.nchan),
		mopWidth:   uint64(l.mcCfg.MOPWidth),
		chanStride: uint64(l.banksPerChan),
	}
	for ch, mc := range m.mcs {
		st.trs[ch] = chanTracker{t: st.tracker, bankOff: ch * l.banksPerChan, rankOff: ch * l.mcCfg.Ranks}
		if mc != nil {
			mc.Reset(l.mcCfg, l.timing, st.defs[ch], &st.trs[ch])
		} else {
			mc = memctrl.New(l.mcCfg, l.timing, st.defs[ch], &st.trs[ch])
			m.mcs[ch] = mc
		}
		mc.Fills = m
	}

	st.cores = resize(st.cores, cfg.Cores)
	st.gens = resize(st.gens, cfg.Cores)
	st.ports = resize(st.ports, cfg.Cores)
	m.cores, m.gens = st.cores, st.gens
	for i, c := range m.cores {
		gen, uncached, err := cfg.generatorFor(l.mcCfg, l.nchan, i, cfg.Mix[i])
		if err != nil {
			return nil, err
		}
		m.gens[i] = gen
		coreCfg := cpu.DefaultConfig()
		coreCfg.Uncached = uncached
		st.ports[i] = chanPort{m: m, core: i}
		if c == nil {
			c = cpu.New(i, coreCfg, gen, &st.ports[i])
			m.cores[i] = c
		} else {
			c.Reset(i, coreCfg, gen, &st.ports[i])
		}
		c.WarmupTarget = cfg.WarmupPerCore
		c.MeasureTarget = cfg.InstrPerCore
	}
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
// component on the very next cycle. No controller decision depends on
// which cycles were ticked (the write-drain mode moves only with the
// queue depths), so the two loops issue the same commands: the
// differential tests in engine_diff_test.go compare the streams command
// for command across every defense, attack mix, Svärd setting and
// backend, and FuzzEngineSkipVsNoSkip lets the fuzzer choose the cell.
//
// It starts at m.start: cycle 0, or the checkpoint a diverged cell
// resumed from. While a twin records, it saves the machine at the top of
// the first iteration at or past each checkpoint boundary (twin.go).
func (m *machine) runSkip(maxCycles uint64) (uint64, bool) {
	remaining := 0
	for _, c := range m.cores {
		if !c.Finished() {
			remaining++
		}
	}
	cycle := m.start
	for cycle < maxCycles {
		if cycle >= m.saveAt {
			m.save(cycle)
		}
		m.ticks++
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
		// The tracker bounds no jump: it enters each closing row's epoch
		// itself (tracker.go), so a temporal run ticks its static run's
		// cycles. bound tracks which component's NextEvent set the jump
		// target (ties keep the earlier source, matching the scan order).
		next, bound := uint64(math.MaxUint64), &m.obs.BoundHorizon
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
		Violations: m.tracker.Violations,
		Finished:   finished,
	}
	for _, mc := range m.mcs {
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

// engineLoop drives a built machine until its last core finishes or
// maxCycles: runSkip, or the reference loop runNaive, which only the
// differential tests run.
type engineLoop func(m *machine, maxCycles uint64) (cycle uint64, finished bool)

// run drives a built machine to completion under loop and folds the
// Result.
func (m *machine) run(cfg Config, loop engineLoop) Result {
	m.rec.Begin(obs.PhaseWarmup)
	cycle, finished := loop(m, cfg.MaxCycles)
	m.tracker.endRun(cycle, cfg.MaxCycles)
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

// env is the simulator's environment: the calibrated modules a build
// reads, the twin memo a run reads and feeds, and the idle arenas of its
// pooled runs. Each piece is shared by every run on the env and by
// nothing else; defaultEnv is the one the exported entry points run on.
type env struct {
	modules *moduleTable
	memo    *twinMemo // nil: no replay and no recording, the forced full simulation

	// arenas holds idle *poolState: a paper-scale sweep rebuilds its
	// multi-megabyte simulator (LLC arrays, tracker accrual tables,
	// defense counters, controller queues) hundreds of times, and a
	// pooled run Reset()s one arena instead, so cells execute
	// allocation-flat once the arenas are warm. Concurrent runs never
	// share one, and idle ones stay collectable under memory pressure.
	arenas sync.Pool
}

// defaultEnv backs Run, RunRecorded, PooledRun and PooledRunRecorded:
// every sweep, campaign cell, job and compute batch in the process shares
// its modules, memo and arenas, so consecutive sweeps (and benchmark
// iterations) stay warm.
var defaultEnv = &env{modules: &moduleTable{}, memo: &twinMemo{}}

// runOn is the one body behind every entry point below: build the
// machine on arena st (an empty one for a fresh run), drive it to
// completion, fold the Result. rec may be nil — every Recorder
// method is nil-receiver safe — and the Result is bit-identical either
// way: the recorder observes, it never steers. The build reuses
// whatever st holds and keeps what it builds there; since every
// component's Reset restores the state its constructor produces, the
// pooled and fresh paths are bit-identical by construction, and the
// pooled differential tests enforce it.
//
// e.memo is the twin memo the run reads and feeds. A cell the memo
// holds a log for is first replayed from it: a static defense cell
// from its defense-free twin's, where at the defense's first throttle or
// directive the armed half is reset and the cell simulates in full,
// exactly as without a memo; any cell from another leg's stream of its
// family (the same Config under another Temporal), with only its tracker
// armed. A cell that simulates without having diverged is recorded while
// it runs unless the memo holds or is recording its twin or its family's
// stream. See twin.go.
func (e *env) runOn(st *poolState, cfg Config, rec *obs.Recorder) (Result, error) {
	rec.Begin(obs.PhaseBuild)
	l, err := newLayout(cfg, e.modules)
	var tw *twin
	eligible, stream := false, false
	if err == nil {
		tw, eligible = e.memo.replayable(&cfg)
		stream = tw != nil && sameStream(&tw.cfg, &cfg)
		if stream {
			l.armTracker(st)
		} else {
			err = l.arm(st)
		}
	}
	if err != nil {
		rec.End(obs.PhaseBuild)
		return Result{}, err
	}
	diverged := false
	var from *checkpoint
	if tw != nil {
		rec.End(obs.PhaseBuild)
		rec.Begin(obs.PhaseRun)
		d, ok := l.replay(st, tw)
		rec.End(obs.PhaseRun)
		if ok {
			rec.Begin(obs.PhaseFold)
			res := tw.result(st.tracker.Violations)
			if rec != nil {
				c := &rec.Counters
				c.TwinReplays++
				c.EpochAdvances += st.tracker.epochAdvances()
				c.LiveDraws += st.tracker.liveDraws()
			}
			rec.End(obs.PhaseFold)
			return res, nil
		}
		// The build phase absorbs the abandoned replay: its end is
		// stamped again below, and the run phase's start again when the
		// measurement region begins. The twin's last checkpoint before
		// entry d holds the machine the cell has there too: the re-armed
		// half is walked to it and the machine restored from it.
		diverged = true
		err = l.arm(st)
		if from = tw.resumePoint(d); from != nil && err == nil {
			l.walk(st, tw, from.n)
		}
	}
	var m *machine
	if err == nil {
		m, err = l.assemble(st)
	}
	if err == nil && from != nil {
		m.restore(from)
	}
	rec.End(obs.PhaseBuild)
	if err != nil {
		return Result{}, err
	}
	m.rec = rec
	if diverged {
		m.obs.TwinDiverged = 1
	} else if eligible && tw == nil {
		m.obs.TwinMissed = 1
	}
	e.memo.record(&cfg, m)
	defer e.memo.abandon(m.tracker)
	res := m.run(cfg, (*machine).runSkip)
	e.memo.finish(m.tracker, res)
	return res, nil
}

// run is runOn on one of e's idle arenas: allocation-flat once warm, and
// bit-identical to a fresh arena after any geometry or truncated run
// (pool_test.go).
func (e *env) run(cfg Config, rec *obs.Recorder) (Result, error) {
	st, _ := e.arenas.Get().(*poolState)
	if st == nil {
		st = newPoolState()
	}
	// The arena stays reusable after a failed build: every Reset fully
	// reinitializes, regardless of how far the build got.
	defer e.arenas.Put(st)
	return e.runOn(st, cfg, rec)
}

// Run executes one simulation from fresh allocations.
func Run(cfg Config) (Result, error) { return defaultEnv.runOn(newPoolState(), cfg, nil) }

// RunRecorded is Run with a flight recorder attached: the run's engine
// and controller counters fold into rec.Counters, and the build,
// warmup, run, and fold phases are stamped onto rec. A nil rec makes
// this exactly Run.
func RunRecorded(cfg Config, rec *obs.Recorder) (Result, error) {
	return defaultEnv.runOn(newPoolState(), cfg, rec)
}

// PooledRun is Run on the default environment's arena pool — the default
// executor of every sweep and of the campaign cell path (campaign.Cell).
// Bit-identical to Run.
func PooledRun(cfg Config) (Result, error) { return defaultEnv.run(cfg, nil) }

// PooledRunRecorded is RunRecorded on the default environment's arena pool.
func PooledRunRecorded(cfg Config, rec *obs.Recorder) (Result, error) {
	return defaultEnv.run(cfg, rec)
}
