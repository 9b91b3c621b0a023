// Package memctrl implements the cycle-level memory controller of the
// performance evaluation (§7.1, Table 4): 64-entry read/write queues,
// FR-FCFS scheduling with a column cap of 16, open-row policy, MOP
// address mapping, rank-level refresh, and the defense hook points —
// activation gating (throttling), preventive victim refreshes, row
// migrations, and metadata traffic.
package memctrl

import (
	"math/bits"

	"svard/internal/dram"
	"svard/internal/mem"
	"svard/internal/mitigation"
	"svard/internal/obs"
	"svard/internal/rowtab"
)

// Config sizes the controller.
type Config struct {
	CPUGHz        float64
	ReadQ, WriteQ int
	ColumnCap     int // FR-FCFS consecutive row-hit cap
	MOPWidth      int // consecutive cache blocks per row before bank interleave
	RowBytes      int
	Ranks         int
	BankGroups    int
	BanksPerGroup int
	RowsPerBank   int
}

// DefaultConfig returns Table 4's memory controller configuration.
func DefaultConfig(rowsPerBank int) Config {
	g, _ := dram.BackendByName(dram.BackendDDR4)
	return ConfigFor(g.Geom, rowsPerBank, 3.2)
}

// ConfigFor returns the controller configuration for one (pseudo)
// channel of geometry g, overriding the preset's rows per bank with
// rowsPerBank (the simulator scales bank depth; see EXPERIMENTS.md).
// Queue depths, the FR-FCFS column cap, and the MOP width stay at the
// Table 4 values for every backend so cross-backend sweeps vary only
// the memory geometry and timing.
func ConfigFor(g dram.SystemGeometry, rowsPerBank int, cpuGHz float64) Config {
	return Config{
		CPUGHz:        cpuGHz,
		ReadQ:         64,
		WriteQ:        64,
		ColumnCap:     16,
		MOPWidth:      4,
		RowBytes:      g.RowBytes,
		Ranks:         g.Ranks,
		BankGroups:    g.BankGroups,
		BanksPerGroup: g.BanksPerGroup,
		RowsPerBank:   rowsPerBank,
	}
}

// Tracker observes physically-addressed DRAM activity for security
// accounting; package sim implements it over the disturbance model.
type Tracker interface {
	// OnAct fires when a row is opened (its cells recharge).
	OnAct(bank, physRow int, cycle uint64)
	// OnPre fires when a row closes after onCycles open.
	OnPre(bank, physRow int, onCycles uint64)
	// OnRefresh fires when REF restores rows [first, first+count) of
	// every bank in the rank.
	OnRefresh(rank, firstRow, count int)
	// OnRowsSwapped fires when a migration rewrites two rows.
	OnRowsSwapped(bank, physA, physB int)
}

// nopTracker is used when no security accounting is attached.
type nopTracker struct{}

func (nopTracker) OnAct(int, int, uint64)      {}
func (nopTracker) OnPre(int, int, uint64)      {}
func (nopTracker) OnRefresh(int, int, int)     {}
func (nopTracker) OnRowsSwapped(int, int, int) {}

// Request is one memory transaction. Enqueueing copies the request into
// the controller's queues (which store values contiguously — the
// FR-FCFS scan is the hot loop of the whole simulator), so callers must
// not expect post-enqueue mutations to be observed.
type Request struct {
	Addr    uint64
	Done    func(cycle uint64) // read completion callback (may be nil)
	arrive  uint64
	retryAt uint64
	Core    int
	bank    int32 // global bank
	row     int32 // MC-visible row (pre-remap)
	phys    int32 // physical row after migration indirection
	Write   bool
	// The layout keeps a Request at 56 bytes, within one cache line
	// per scanned queue entry in the FR-FCFS hot loop.
}

// victimOp is an in-flight preventive refresh (ACT+PRE of one row).
type victimOp struct {
	bank, row int // physical row
	opened    bool
	preAt     uint64
}

// Stats aggregates controller activity.
type Stats struct {
	Reads, Writes      uint64
	Acts, Pres         uint64
	RowHits, RowMisses uint64
	VictimRefreshes    uint64
	Migrations         uint64
	MetaReads, MetaWr  uint64
	ThrottleStalls     uint64
	Refreshes          uint64
}

// Add accumulates o into s — the fold across per-channel controllers of
// a multi-channel system.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Acts += o.Acts
	s.Pres += o.Pres
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.VictimRefreshes += o.VictimRefreshes
	s.Migrations += o.Migrations
	s.MetaReads += o.MetaReads
	s.MetaWr += o.MetaWr
	s.ThrottleStalls += o.ThrottleStalls
	s.Refreshes += o.Refreshes
}

// Controller is the memory controller.
type Controller struct {
	Cfg   Config
	Sys   *mem.System
	Def   mitigation.Defense
	Track Tracker
	Stats Stats

	// Obs carries the flight-recorder counters (scan lengths, refresh
	// stalls, mitigation directives). Unlike Stats it is never part of a
	// Result — sim folds it into an obs.Recorder when one is attached —
	// so it can grow without perturbing cached results or fixtures. It
	// follows Stats's lifecycle exactly: zeroed by Reset, incremented
	// unconditionally (an uint64 add is cheaper than a branch here).
	Obs obs.ControllerCounters

	readQ   []Request
	writeQ  []Request
	victims []victimOp
	// victimSet deduplicates pending preventive refreshes: a flat bitset
	// over the (bank, row) key space.
	victimSet *rowtab.Bits

	// Row indirection installed by migration defenses (RRS/AQUA): paged
	// flat tables over the (bank, row) key space storing mapped-row+1
	// (0 = identity). remapped short-circuits the lookup entirely for
	// the defenses that never migrate.
	logToPhys *rowtab.Table[int32]
	physToLog *rowtab.Table[int32]
	remapped  bool

	// banks is the per-bank index of the queues and pending the bitset
	// of banks with anything queued (see bankQueued). hitSumR/hitSumW
	// total the banks' hit counts: a zero sum lets the FR-FCFS scan stop
	// at the first eligible ACT — with no hit-class entry in the queue
	// there can be no column or cap-rotation candidate, and every
	// conflict PRE is trivially unsuppressed — exactly what the full scan
	// would conclude.
	banks   []bankQueued
	pending []uint64
	hitSumR int
	hitSumW int

	blocksPerRow int
	writeMode    bool
	refSlice     []int // per-rank next refresh slice row
	rowsPerREF   int
	idleUntil    uint64 // Tick fast path: no-op until this cycle

	// Per-tick bank memos for the scheduling passes (scanTag packs
	// epoch<<16|flags, one load validates and reads a bank's memo),
	// epoch-tagged so no O(banks) reset is paid. The scan epoch advances
	// once per TickFull: within one tick no command separates the victim,
	// write, and read passes, so CanPRE/CanACT answers carry across all
	// of them (column and hit flags are kept per direction). The epoch is
	// monotone across pooled reuse, so a stale tag can never collide.
	scanTag     []uint64
	scanEpoch   uint64
	confScratch []int32 // conflict-PRE banks (schedule)

	// mutated records command-free state changes within one Tick (a
	// defense throttle stamping retryAt, a victim op adopting an
	// already-open row), so Tick can report them as activity to the
	// event-driven engine: a cycle that changed anything must not be
	// treated as skippable.
	mutated bool
}

// bankQueued is one bank's line of the queue index: everything the
// controller needs to know about the requests queued for the bank
// without walking the queues, on one cache line.
type bankQueued struct {
	// reqR/reqW count the bank's queued reads and writes. They change
	// only at enqueue and column completion: a request's bank is fixed.
	reqR, reqW int32
	// hitR/hitW count those that target the bank's open row (hit-class
	// membership, regardless of any defense retry time). They change at
	// the same two points and when the open row or the requests' physical
	// rows do (issueACTRaw, issuePRE, row-swap repair).
	hitR, hitW int32
	// retryUntil bounds from above every retryAt stamped on a request
	// queued for the bank: once it has passed, no stamp can still gate
	// anything and the four counts say all NextEvent needs.
	retryUntil uint64
}

// New builds a controller over timing t, defense def (nil = none), and
// tracker tr (nil = none).
func New(cfg Config, t mem.Timing, def mitigation.Defense, tr Tracker) *Controller {
	c := &Controller{}
	c.Reset(cfg, t, def, tr)
	return c
}

// Reset reinitializes the controller in place to the state
// New(cfg, t, def, tr) produces, retaining queue, table, and scratch
// allocations — the pooled-reuse path between sweep cells. Requests
// still queued from a truncated run are recycled; the epoch counters
// deliberately keep counting (their values never affect scheduling,
// only whether a memo slot is current).
func (c *Controller) Reset(cfg Config, t mem.Timing, def mitigation.Defense, tr Tracker) {
	if def == nil {
		def = mitigation.Nop{}
	}
	if tr == nil {
		tr = nopTracker{}
	}
	if c.Sys == nil {
		c.Sys = mem.NewSystem(t, cfg.Ranks, cfg.BankGroups, cfg.BanksPerGroup, cfg.RowsPerBank)
	} else {
		c.Sys.Reset(t, cfg.Ranks, cfg.BankGroups, cfg.BanksPerGroup, cfg.RowsPerBank)
	}
	banks := c.Sys.TotalBanks()
	keys := int64(banks) * int64(cfg.RowsPerBank)
	refs := int(t.REFW / t.REFI)
	if refs <= 0 {
		refs = 1
	}
	c.Cfg = cfg
	c.Def = def
	c.Track = tr
	c.Stats = Stats{}
	c.Obs = obs.ControllerCounters{}
	c.readQ = c.readQ[:0]
	c.writeQ = c.writeQ[:0]
	c.victims = c.victims[:0]
	if c.victimSet == nil {
		c.victimSet = rowtab.NewBits(keys)
	} else {
		c.victimSet.Resize(keys)
	}
	if c.logToPhys == nil {
		c.logToPhys = rowtab.New[int32](keys)
		c.physToLog = rowtab.New[int32](keys)
	} else {
		c.logToPhys.Resize(keys)
		c.physToLog.Resize(keys)
	}
	c.remapped = false
	c.blocksPerRow = cfg.RowBytes / 64
	c.writeMode = false
	if cap(c.refSlice) >= cfg.Ranks {
		c.refSlice = c.refSlice[:cfg.Ranks]
		clear(c.refSlice)
	} else {
		c.refSlice = make([]int, cfg.Ranks)
	}
	c.rowsPerREF = (cfg.RowsPerBank + refs - 1) / refs
	c.idleUntil = 0
	c.mutated = false
	// Epoch-tagged scratch: zeroed only on growth (fresh zeros read as
	// "never current" because the epoch counters start above 0 and only
	// increment, across pooled reuse too).
	if cap(c.scanTag) >= banks {
		c.scanTag = c.scanTag[:banks]
	} else {
		c.scanTag = make([]uint64, banks)
	}
	words := (banks + 63) / 64
	if cap(c.banks) >= banks {
		c.banks = c.banks[:banks]
		c.pending = c.pending[:words]
		clear(c.banks)
		clear(c.pending)
	} else {
		c.banks = make([]bankQueued, banks)
		c.pending = make([]uint64, words)
	}
	c.hitSumR, c.hitSumW = 0, 0
}

// recountHits recomputes bank's hit-class counts after its open row
// changed (ACT) or its queued requests' physical rows were remapped
// (swap repair). Runs once per such command; the scans it lets schedule
// skip repay it many times over. Each scan stops at the bank's last
// queued request (the index says how many there are), so an ACT to a bank
// nothing is queued for — a victim refresh, typically — scans nothing.
func (c *Controller) recountHits(bank int) {
	row := c.Sys.Banks[bank].OpenRow
	bq := &c.banks[bank]
	n := countHits(c.readQ, bank, row, bq.reqR)
	c.hitSumR += int(n - bq.hitR)
	bq.hitR = n
	n = countHits(c.writeQ, bank, row, bq.reqW)
	c.hitSumW += int(n - bq.hitW)
	bq.hitW = n
}

// countHits counts q's requests to (bank, row), given that exactly
// queued of q's requests target bank.
func countHits(q []Request, bank, row int, queued int32) int32 {
	n := int32(0)
	for i := 0; queued > 0; i++ {
		if int(q[i].bank) == bank {
			queued--
			if int(q[i].phys) == row {
				n++
			}
		}
	}
	return n
}

// rowKey flattens (bank, row) for the controller's per-row tables.
func (c *Controller) rowKey(bank, row int) int64 {
	return int64(bank)*int64(c.Cfg.RowsPerBank) + int64(row)
}

// Read enqueues a read transaction; false when the queue is full.
// Equivalent to EnqueueRead with a fresh Request, with no per-access
// allocation (the value lands directly in the queue's retained backing
// array).
func (c *Controller) Read(addr uint64, core int, done func(cycle uint64), cycle uint64) bool {
	return c.EnqueueRead(&Request{Addr: addr, Core: core, Done: done}, cycle)
}

// Write enqueues a posted write transaction; false when the queue is
// full.
func (c *Controller) Write(addr uint64, core int, cycle uint64) bool {
	return c.EnqueueWrite(&Request{Addr: addr, Core: core}, cycle)
}

// Decode applies the MOP address mapping: consecutive cache blocks fill
// MOPWidth columns of a row, then interleave across bank groups, banks,
// and ranks, keeping row-buffer locality while spreading traffic.
func (c *Controller) Decode(addr uint64) (bank, row int) {
	block := addr >> 6
	block /= uint64(c.Cfg.MOPWidth)
	bg := int(block % uint64(c.Cfg.BankGroups))
	block /= uint64(c.Cfg.BankGroups)
	bk := int(block % uint64(c.Cfg.BanksPerGroup))
	block /= uint64(c.Cfg.BanksPerGroup)
	rank := int(block % uint64(c.Cfg.Ranks))
	block /= uint64(c.Cfg.Ranks)
	block /= uint64(c.blocksPerRow / c.Cfg.MOPWidth) // column-high bits
	row = int(block % uint64(c.Cfg.RowsPerBank))
	bank = rank*c.Cfg.BankGroups*c.Cfg.BanksPerGroup + bg*c.Cfg.BanksPerGroup + bk
	return bank, row
}

// physOf resolves the MC-visible row through the migration indirection.
func (c *Controller) physOf(bank, row int) int {
	if !c.remapped {
		return row
	}
	if p := c.logToPhys.Get(c.rowKey(bank, row)); p != 0 {
		return int(p) - 1
	}
	return row
}

func (c *Controller) logOf(bank, phys int) int {
	if !c.remapped {
		return phys
	}
	if l := c.physToLog.Get(c.rowKey(bank, phys)); l != 0 {
		return int(l) - 1
	}
	return phys
}

func (c *Controller) swapRows(bank, physA, physB int) {
	la, lb := c.logOf(bank, physA), c.logOf(bank, physB)
	c.remapped = true
	c.logToPhys.Set(c.rowKey(bank, la), int32(physB)+1)
	c.logToPhys.Set(c.rowKey(bank, lb), int32(physA)+1)
	c.physToLog.Set(c.rowKey(bank, physB), int32(la)+1)
	c.physToLog.Set(c.rowKey(bank, physA), int32(lb)+1)
	// Repair the cached physical rows of queued requests (rare path).
	for _, q := range [2][]Request{c.readQ, c.writeQ} {
		for i := range q {
			if int(q[i].bank) == bank {
				q[i].phys = int32(c.physOf(bank, int(q[i].row)))
			}
		}
	}
	c.recountHits(bank)
}

// EnqueueRead adds a copy of the read to the queue; false when the
// queue is full.
func (c *Controller) EnqueueRead(r *Request, cycle uint64) bool {
	if len(c.readQ) >= c.Cfg.ReadQ {
		return false
	}
	r.arrive = cycle
	bank, row := c.Decode(r.Addr)
	r.bank, r.row = int32(bank), int32(row)
	r.phys = int32(c.physOf(bank, row))
	r.Write = false
	c.readQ = append(c.readQ, *r)
	c.banks[bank].reqR++
	c.pending[bank>>6] |= 1 << (bank & 63)
	if c.Sys.Banks[bank].OpenRow == int(r.phys) {
		c.banks[bank].hitR++
		c.hitSumR++
	}
	c.noteEnqueued(r, cycle)
	return true
}

// EnqueueWrite adds a copy of the write to the queue; false when the
// queue is full. Writes are posted: the issuer never waits for them.
func (c *Controller) EnqueueWrite(r *Request, cycle uint64) bool {
	if len(c.writeQ) >= c.Cfg.WriteQ {
		return false
	}
	r.arrive = cycle
	bank, row := c.Decode(r.Addr)
	r.bank, r.row = int32(bank), int32(row)
	r.phys = int32(c.physOf(bank, row))
	r.Write = true
	c.writeQ = append(c.writeQ, *r)
	c.banks[bank].reqW++
	c.pending[bank>>6] |= 1 << (bank & 63)
	if c.Sys.Banks[bank].OpenRow == int(r.phys) {
		c.banks[bank].hitW++
		c.hitSumW++
	}
	c.noteEnqueued(r, cycle)
	return true
}

// noteEnqueued tightens the cached idle bound for a newly queued
// request instead of discarding it: the controller stays dormant until
// min(previous bound, the request's own earliest actionable cycle).
// That bound is exact — a new request only adds candidate actions
// (bounded below by its device timing with retryAt still zero), the
// other requests' earliest times depend only on frozen bank state, the
// write-drain mode flip is covered because the idle bound already
// considers both queues regardless of mode, and a new row hit can only
// *suppress* (delay) a conflict PRE, where waking early is a wasted
// no-op tick, never a missed action. Bursty cores therefore no longer
// force a full scheduling rescan per enqueued miss.
func (c *Controller) noteEnqueued(r *Request, cycle uint64) {
	if c.idleUntil <= cycle {
		return // not dormant: the next Tick runs a full pass anyway
	}
	bank := int(r.bank)
	b := &c.Sys.Banks[bank]
	var at uint64
	switch {
	case b.OpenRow == int(r.phys) && b.HitStreak < c.Cfg.ColumnCap:
		at = c.Sys.ColumnEarliest(bank, r.Write)
	case b.OpenRow >= 0:
		at = c.Sys.PreEarliest(bank)
	default:
		at = c.Sys.ActEarliest(bank)
	}
	if at < c.idleUntil {
		c.idleUntil = at
	}
}

// QueueLens returns the current read and write queue depths.
func (c *Controller) QueueLens() (int, int) { return len(c.readQ), len(c.writeQ) }

// Idle reports whether all queues and internal operations are drained.
func (c *Controller) Idle() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.victims) == 0
}

// Tick advances the controller one CPU cycle, issuing at most one DRAM
// command. It reports whether the controller did anything — issued a
// command or changed scheduling state. A false return guarantees the
// tick was a no-op (re-ticking any later cycle before NextEvent's bound
// would also be a no-op), which is what lets the event-driven engine in
// sim.Run skip the controller's idle cycles.
//
// Tick exploits its own guarantee: after an idle cycle it caches the
// NextEvent bound and answers every Tick before it with an immediate
// false, skipping the scheduling scan entirely. The cache is dropped on
// any enqueue (a new request can be actionable at once); every other
// state change happens inside an active tick, which recomputes the
// bound at the next idle one.
func (c *Controller) Tick(cycle uint64) bool {
	if cycle < c.idleUntil {
		return false
	}
	active := c.TickFull(cycle)
	// Cache the next actionable cycle after active ticks too, not just
	// idle ones: once this tick's command (or mutation) has landed, the
	// controller's state is frozen until the bound — by the same
	// argument that makes the bound exact after an idle tick — and any
	// enqueue in between re-tightens it through noteEnqueued. This
	// spares the full scheduling rescan that otherwise trails every
	// issued command on the next cycle, discovering nothing is ready.
	c.idleUntil = c.NextEvent(cycle)
	return active
}

// TickFull is Tick without the idle fast path: it always evaluates the
// full per-cycle scheduling pass. The per-cycle reference loop
// (sim.Config.NoSkip) drives the controller through TickFull so the
// baseline the differential tests compare against contains none of the
// event machinery.
func (c *Controller) TickFull(cycle uint64) bool {
	c.mutated = false
	// One memo epoch per tick: no command separates the victim, write,
	// and read passes within a tick, so bank-level CanPRE/CanACT/
	// CanColumn answers carry across all of them.
	c.scanEpoch++
	issued := c.tick(cycle)
	return issued || c.mutated
}

// tick is Tick's body; true when a DRAM command issued.
func (c *Controller) tick(cycle uint64) bool {
	// Refresh management.
	for rank := 0; rank < c.Cfg.Ranks; rank++ {
		c.Sys.EndRefreshIfDone(rank, cycle)
		if c.Sys.RefreshDue(rank, cycle) && !c.Sys.Ranks[rank].Refreshing {
			if c.Sys.AllPrecharged(rank) {
				c.Sys.REF(rank, cycle)
				c.Track.OnRefresh(rank, c.refSlice[rank], c.rowsPerREF)
				c.refSlice[rank] = (c.refSlice[rank] + c.rowsPerREF) % c.Cfg.RowsPerBank
				c.Stats.Refreshes++
				return true // REF consumes the command slot
			}
			// Close a bank blocking the refresh.
			base := rank * c.Sys.BanksPerRank()
			for b := base; b < base+c.Sys.BanksPerRank(); b++ {
				if c.Sys.Banks[b].OpenRow >= 0 && c.Sys.CanPRE(b, cycle) {
					c.Obs.RefreshStalls++
					c.issuePRE(b, cycle)
					return true
				}
			}
		}
	}

	// Preventive victim refreshes have priority over demand traffic:
	// they are the defense's security-critical action.
	if c.tickVictims(cycle) {
		return true
	}

	// Write drain mode with high/low watermarks.
	if c.writeMode {
		if len(c.writeQ) <= c.Cfg.WriteQ/4 {
			c.writeMode = false
		}
	} else if len(c.writeQ) >= c.Cfg.WriteQ*3/4 || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
		c.writeMode = true
	}

	if c.writeMode && c.schedule(c.writeQ, cycle, true) {
		return true
	}
	if c.schedule(c.readQ, cycle, false) {
		return true
	}
	if !c.writeMode && len(c.writeQ) > 0 {
		// Opportunistically drain writes when reads have nothing to do.
		return c.schedule(c.writeQ, cycle, true)
	}
	return false
}

// NextEvent returns the earliest cycle after cycle at which an idle
// controller could act, or math.MaxUint64 when it has nothing pending.
// It is meaningful only right after a Tick(cycle) that returned false:
// in that state no command can issue, so every device ready time is
// frozen until the returned cycle, and mem.System's *Earliest bounds
// are exact. The bound is conservative (it may name a cycle where the
// controller still does nothing — e.g. a conflict PRE suppressed by the
// open-row policy, or a defense denying the ACT it anticipated), which
// costs a wasted tick but can never skip a cycle the per-cycle loop
// would have acted on.
//
// Two Tick-internal mutations deliberately do not appear here because
// they cannot change scheduling outcomes: EndRefreshIfDone only clears
// a flag that CanACT already double-checks against RefUntil, and the
// write-drain mode flip is a pure function of the (frozen) queue depths
// and the previous mode, so it reaches the same state on the wake tick
// as it would have on the next per-cycle tick — NextEvent therefore
// considers both queues regardless of the current mode.
func (c *Controller) NextEvent(cycle uint64) uint64 {
	if cycle < c.idleUntil {
		return c.idleUntil // computed by the idle Tick that got us here
	}
	c.Obs.NextEventCalls++
	// floor is the lowest value NextEvent can return: the moment any
	// candidate reaches it the minimum is decided, so every loop below
	// bails out (the remaining candidates could only tie).
	floor := cycle + 1
	next := c.maintenanceEvent(floor)
	if next == floor {
		return floor
	}
	// Demand and write queues: one candidate per pending bank. A closed
	// bank waits for its ACT. An open bank offers each queue that has a
	// hit on it the column command (read and write latencies differ) —
	// or, at the column cap, the rotating PRE — while the open-row policy
	// suppresses that queue's conflicts: schedule never closes a bank
	// while a same-queue request still hits its open row, and the hits
	// draining is an active tick that reschedules everything. A queue
	// with only conflicts offers the PRE. The index holds exactly these
	// facts, so no queue is walked unless a retry stamp on the bank may
	// still be live.
	scanned := false
	for w, word := range c.pending {
		for ; word != 0; word &= word - 1 {
			bank := w<<6 | bits.TrailingZeros64(word)
			b := &c.Sys.Banks[bank]
			bq := &c.banks[bank]
			var at uint64
			switch {
			case bq.retryUntil > floor:
				if !scanned {
					scanned = true
					c.Obs.NextEventScans++
				}
				at = c.bankEventByRequest(bank, floor)
			case b.OpenRow < 0:
				at = c.Sys.ActEarliest(bank)
			case b.HitStreak >= c.Cfg.ColumnCap:
				at = c.Sys.PreEarliest(bank) // rotation or conflict: a PRE either way
			default:
				at = ^uint64(0)
				if bq.hitR > 0 {
					at = c.Sys.ColumnEarliest(bank, false)
				}
				if bq.hitW > 0 {
					at = min(at, c.Sys.ColumnEarliest(bank, true))
				}
				if (bq.hitR == 0 && bq.reqR > 0) || (bq.hitW == 0 && bq.reqW > 0) {
					at = min(at, c.Sys.PreEarliest(bank))
				}
			}
			if at < next {
				if at <= floor {
					return floor
				}
				next = at
			}
		}
	}
	return next
}

// bankEventByRequest is one bank's candidate for NextEvent while a
// defense retry may still gate some of its requests. A stamp at or below
// floor is the same as no stamp — NextEvent clamps to floor from below,
// so max(at, retryAt) and max(at, 0) agree, and a hit with
// retryAt <= floor suppresses every conflict candidate (all >= floor)
// exactly as an unstamped one does — which is why the index alone
// decides every other bank. Here the stamps matter, but only the
// earliest of each class: the hits of a queue share one device time, so
// the earliest-stamped one acts first, and it is also the one whose
// stamp starts the suppression of that queue's conflicts; a conflict
// wake-up is real only if it lands strictly before that, and the
// earliest-stamped conflict is the one that can.
func (c *Controller) bankEventByRequest(bank int, floor uint64) uint64 {
	b := &c.Sys.Banks[bank]
	bq := &c.banks[bank]
	const none = ^uint64(0)
	at, latest := none, uint64(0)
	for write, q := range [2][]Request{c.readQ, c.writeQ} {
		left := bq.reqR
		if write == 1 {
			left = bq.reqW
		}
		hit, other := none, none // earliest stamp among the open row's requests, and the rest
		for i := 0; left > 0; i++ {
			r := &q[i]
			if int(r.bank) != bank {
				continue
			}
			left--
			latest = max(latest, r.retryAt)
			if int(r.phys) == b.OpenRow {
				hit = min(hit, r.retryAt)
			} else {
				other = min(other, r.retryAt)
			}
		}
		if b.OpenRow < 0 {
			if other != none {
				at = min(at, max(c.Sys.ActEarliest(bank), other))
			}
			continue
		}
		if hit != none {
			ready := c.Sys.PreEarliest(bank) // column-cap rotation
			if b.HitStreak < c.Cfg.ColumnCap {
				ready = c.Sys.ColumnEarliest(bank, write == 1)
			}
			at = min(at, max(ready, hit))
		}
		if other != none {
			if pre := max(c.Sys.PreEarliest(bank), other, floor); pre < hit {
				at = min(at, pre)
			}
		}
	}
	// Every request of the bank was seen, so the true latest stamp is
	// known: once it passes the bank goes by the index again.
	bq.retryUntil = latest
	return at
}

// maintenanceEvent is NextEvent's bound over refresh and the preventive
// refresh backlog. Like the demand bounds it returns floor as soon as a
// candidate reaches it, never less.
func (c *Controller) maintenanceEvent(floor uint64) uint64 {
	cycle := floor - 1
	next := ^uint64(0)
	consider := func(at uint64) bool {
		if at < next {
			next = at
		}
		return next <= floor
	}
	// Refresh: either the next deadline, or — when one is overdue — the
	// earliest close of a bank blocking it (REF itself needs every bank
	// precharged), the REF itself once no bank blocks it, or the end of
	// the refresh already in flight. The unblocked-overdue case only
	// arises when NextEvent runs right after an *active* tick (an idle
	// tick would have issued the REF), e.g. after the PRE that closed
	// the rank's last open bank.
	for rank := range c.Sys.Ranks {
		r := &c.Sys.Ranks[rank]
		if r.Refreshing && r.RefUntil > cycle && consider(r.RefUntil) {
			return floor
		}
		if r.NextREF > cycle {
			if consider(r.NextREF) {
				return floor
			}
			continue
		}
		if r.Refreshing {
			continue
		}
		base := rank * c.Sys.BanksPerRank()
		blocked := false
		for b := base; b < base+c.Sys.BanksPerRank(); b++ {
			if c.Sys.Banks[b].OpenRow >= 0 {
				blocked = true
				if consider(c.Sys.PreEarliest(b)) {
					return floor
				}
			}
		}
		if !blocked {
			return floor // REF is actionable on the next tick
		}
	}
	// Preventive refreshes: only the head of the backlog (up to the
	// per-tick scan cap) can act; later entries wait for a removal,
	// which is itself an active tick.
	for i := range c.victims {
		if i >= victimScanCap {
			break
		}
		v := &c.victims[i]
		b := &c.Sys.Banks[v.bank]
		switch {
		case !v.opened && b.OpenRow == v.row:
			return floor // adopts the open row on the next tick
		case !v.opened && b.OpenRow >= 0:
			if consider(c.Sys.PreEarliest(v.bank)) {
				return floor
			}
		case !v.opened:
			if consider(c.Sys.ActEarliest(v.bank)) {
				return floor
			}
		case b.OpenRow >= 0:
			if consider(maxU64(v.preAt, c.Sys.PreEarliest(v.bank))) {
				return floor
			}
		default:
			// Opened, but the bank was since closed underneath (a
			// refresh-blocking PRE): the completing PRE needs an open
			// row again, so the wake-up is the next ACT to this bank —
			// an active tick — not a time this victim can name.
		}
	}
	return next
}

// victimScanCap bounds how many pending preventive refreshes are
// considered per cycle; the backlog drains FIFO, so a deeper scan only
// helps when the head entries' banks are all blocked.
const victimScanCap = 16

// tickVictims advances in-flight preventive refreshes; true if a
// command was issued.
func (c *Controller) tickVictims(cycle uint64) bool {
	for i := range c.victims {
		if i >= victimScanCap {
			break
		}
		v := &c.victims[i]
		if !v.opened {
			b := &c.Sys.Banks[v.bank]
			if b.OpenRow == v.row {
				// The victim row happens to be open: reopening is
				// unnecessary; close it to complete the restore. preAt
				// captures the current cycle, so this transition must
				// count as activity or a skipping driver could stamp it
				// later than a per-cycle one.
				v.opened = true
				v.preAt = maxU64(cycle, b.PreReady)
				c.mutated = true
				continue
			}
			if b.OpenRow >= 0 {
				f, ok := c.canPREMemo(v.bank, c.tickTag(v.bank), cycle)
				c.scanTag[v.bank] = f
				if ok {
					c.issuePRE(v.bank, cycle)
					return true
				}
				continue
			}
			f, ok := c.canACTMemo(v.bank, c.tickTag(v.bank), cycle)
			c.scanTag[v.bank] = f
			if ok {
				c.issueACTRaw(v.bank, v.row, cycle)
				v.opened = true
				v.preAt = cycle + c.Sys.T.RAS
				return true
			}
			continue
		}
		if cycle >= v.preAt {
			f, ok := c.canPREMemo(v.bank, c.tickTag(v.bank), cycle)
			c.scanTag[v.bank] = f
			if ok {
				c.issuePRE(v.bank, cycle)
				c.Stats.VictimRefreshes++
				c.victimSet.Unset(c.rowKey(v.bank, v.row))
				c.victims = append(c.victims[:i], c.victims[i+1:]...)
				return true
			}
		}
	}
	return false
}

// Per-tick bank memo flags: within one tick no command separates the
// scheduling passes, so CanColumn/CanPRE/CanACT answer identically for
// every visitor of the same bank. Hit and column flags are kept per
// queue direction (the hit set defines each queue's open-row policy;
// CanColumn depends on read-vs-write latency). The flags live in the
// low 16 bits of scanTag, whose high bits hold the tick epoch the flags
// belong to — one load validates and reads a bank's memo, and bumping
// scanEpoch lazily resets every bank.
const (
	scanHitR uint64 = 1 << iota
	scanHitW
	scanColRChecked
	scanColROK
	scanColWChecked
	scanColWOK
	scanPreChecked
	scanPreOK
	scanActChecked
	scanActOK
)

const scanFlagBits = 16

// tickTag returns bank's memo word for the current tick epoch.
func (c *Controller) tickTag(bank int) uint64 {
	f := c.scanTag[bank]
	if f>>scanFlagBits != c.scanEpoch {
		f = c.scanEpoch << scanFlagBits
	}
	return f
}

// canACTMemo is CanACT with the per-tick bank memo; it returns the
// updated flag word.
func (c *Controller) canACTMemo(bank int, f uint64, cycle uint64) (uint64, bool) {
	if f&scanActChecked == 0 {
		f |= scanActChecked
		if c.Sys.CanACT(bank, cycle) {
			f |= scanActOK
		}
	}
	return f, f&scanActOK != 0
}

// schedule applies FR-FCFS to one queue in a single pass: it finds the
// oldest ready row-hit column command, and failing that, the oldest
// request needing an ACT, a cap-rotation PRE, or a conflict PRE — where
// a conflicting bank is only closed if no queued request still targets
// its open row (open-row policy).
func (c *Controller) schedule(q []Request, cycle uint64, writes bool) bool {
	if len(q) == 0 {
		return false
	}
	c.Obs.ScanPasses++
	epoch := c.scanEpoch << scanFlagBits
	hitSum := c.hitSumR
	if writes {
		hitSum = c.hitSumW
	}
	colCand, actCand, capCand := -1, -1, -1
	confBanks := c.confScratch[:0]
	if hitSum == 0 {
		// No hit-class entry anywhere in the queue: no column or
		// cap-rotation candidate can exist, and no conflict PRE can be
		// suppressed by the open-row policy, so the oldest eligible ACT
		// wins the moment it is found — the scan stops there instead of
		// walking the rest of the queue for a hit that cannot exist.
		for i := range q {
			r := &q[i]
			c.Obs.ScanEntries++
			if cycle < r.retryAt {
				continue
			}
			bank := int(r.bank)
			b := &c.Sys.Banks[bank]
			f := c.scanTag[bank]
			if f>>scanFlagBits != c.scanEpoch {
				f = epoch
			}
			if b.OpenRow >= 0 {
				if len(confBanks) == 0 {
					if f, _ = c.canPREMemo(bank, f, cycle); f&scanPreOK != 0 {
						confBanks = append(confBanks, r.bank)
					}
					c.scanTag[bank] = f
				}
				continue
			}
			if f&scanActChecked == 0 {
				f |= scanActChecked
				if c.Sys.CanACT(bank, cycle) {
					f |= scanActOK
				}
			}
			c.scanTag[bank] = f
			if f&scanActOK != 0 {
				actCand = i
				break
			}
		}
		c.confScratch = confBanks[:0]
		if actCand >= 0 {
			return c.tryACT(&q[actCand], cycle)
		}
		if len(confBanks) > 0 {
			c.issuePRE(int(confBanks[0]), cycle)
			return true
		}
		return false
	}
	hitBit, colChecked, colOK := scanHitR, scanColRChecked, scanColROK
	if writes {
		hitBit, colChecked, colOK = scanHitW, scanColWChecked, scanColWOK
	}
	for i := range q {
		r := &q[i]
		c.Obs.ScanEntries++
		if cycle < r.retryAt {
			continue
		}
		bank := int(r.bank)
		b := &c.Sys.Banks[bank]
		f := c.scanTag[bank]
		if f>>scanFlagBits != c.scanEpoch {
			f = epoch
		}
		switch {
		case b.OpenRow == int(r.phys):
			f |= hitBit
			if b.HitStreak < c.Cfg.ColumnCap {
				if f&colChecked == 0 {
					f |= colChecked
					if c.Sys.CanColumn(bank, int(r.phys), writes, cycle) {
						f |= colOK
					}
				}
				if f&colOK != 0 {
					colCand = i
				}
			} else if capCand < 0 && actCand < 0 {
				if f, _ = c.canPREMemo(bank, f, cycle); f&scanPreOK != 0 {
					capCand = i
				}
			}
		case b.OpenRow >= 0:
			// Collected only while no ACT candidate exists: the ACT
			// path below returns (issue or throttle) without reaching
			// the conflict PREs, so later ones are dead the moment an
			// ACT candidate appears. Same for the cap rotation above.
			if actCand < 0 {
				if f, _ = c.canPREMemo(bank, f, cycle); f&scanPreOK != 0 {
					confBanks = append(confBanks, r.bank)
				}
			}
		default:
			if actCand < 0 {
				// Inline ACT memo: canACTMemo sits just past the
				// inlining budget and this is the simulator's hottest
				// loop.
				if f&scanActChecked == 0 {
					f |= scanActChecked
					if c.Sys.CanACT(bank, cycle) {
						f |= scanActOK
					}
				}
				if f&scanActOK != 0 {
					actCand = i
				}
			}
		}
		c.scanTag[bank] = f
		if colCand >= 0 {
			// Oldest ready row hit wins outright; the rest of the scan
			// only feeds the lower-priority paths.
			break
		}
	}
	// Retain confBanks' growth for the next scan (the entries stay
	// readable through the local slice below).
	c.confScratch = confBanks[:0]
	if colCand >= 0 {
		c.issueColumn(colCand, cycle, writes)
		return true
	}
	if actCand >= 0 {
		return c.tryACT(&q[actCand], cycle)
	}
	for _, bank := range confBanks {
		if c.scanTag[bank]&hitBit == 0 {
			c.issuePRE(int(bank), cycle)
			return true
		}
	}
	if capCand >= 0 {
		c.issuePRE(int(q[capCand].bank), cycle)
		return true
	}
	return false
}

// tryACT opens the row of r, schedule's ACT candidate, unless the
// defense throttles it: then the request is stamped with the cycle it
// may next be considered and no command issues.
func (c *Controller) tryACT(r *Request, cycle uint64) bool {
	ok, retry := c.Def.CanActivate(int(r.bank), int(r.phys), cycle)
	if ok {
		c.issueACT(int(r.bank), int(r.phys), cycle)
		return true
	}
	if retry <= cycle {
		retry = cycle + 1
	}
	r.retryAt = retry
	bq := &c.banks[r.bank]
	bq.retryUntil = max(bq.retryUntil, retry)
	c.Stats.ThrottleStalls++
	c.mutated = true
	return false
}

// canPREMemo is CanPRE with the per-scan bank memo; it returns the
// updated flag word.
func (c *Controller) canPREMemo(bank int, f uint64, cycle uint64) (uint64, bool) {
	if f&scanPreChecked == 0 {
		f |= scanPreChecked
		if c.Sys.CanPRE(bank, cycle) {
			f |= scanPreOK
		}
	}
	return f, f&scanPreOK != 0
}

func (c *Controller) issuePRE(bank int, cycle uint64) {
	row, on := c.Sys.PRE(bank, cycle)
	bq := &c.banks[bank]
	c.hitSumR -= int(bq.hitR)
	c.hitSumW -= int(bq.hitW)
	bq.hitR, bq.hitW = 0, 0
	c.Track.OnPre(bank, row, on)
	c.Stats.Pres++
}

// issueACTRaw opens a row without consulting the defense (internal
// operations: victim refreshes are themselves exempt, as in real
// controllers where maintenance traffic bypasses the tracker).
func (c *Controller) issueACTRaw(bank, row int, cycle uint64) {
	c.Sys.ACT(bank, row, cycle)
	c.recountHits(bank)
	c.Track.OnAct(bank, row, cycle)
	c.Stats.Acts++
}

func (c *Controller) issueACT(bank, physRow int, cycle uint64) {
	c.issueACTRaw(bank, physRow, cycle)
	for _, dir := range c.Def.OnActivate(bank, physRow, cycle) {
		c.execute(dir, cycle)
	}
}

func (c *Controller) execute(dir mitigation.Directive, cycle uint64) {
	switch dir.Kind {
	case mitigation.RefreshVictim:
		// Deduplicate: a pending refresh of the same row already covers
		// this directive.
		key := c.rowKey(dir.Bank, dir.Row)
		if c.victimSet.Get(key) {
			c.Obs.DirRefreshDeduped++
			return
		}
		c.victimSet.Set(key)
		c.Obs.DirRefreshVictim++
		c.victims = append(c.victims, victimOp{bank: dir.Bank, row: dir.Row})
	case mitigation.SwapRows:
		c.swapRows(dir.Bank, dir.Row, dir.DstRow)
		c.Sys.BlockBank(dir.Bank, cycle, dir.BusyCycles)
		c.Track.OnRowsSwapped(dir.Bank, dir.Row, dir.DstRow)
		c.Stats.Migrations++
		c.Obs.DirSwapRows++
	case mitigation.ExtraMem:
		c.Obs.DirExtraMem++
		for i := 0; i < dir.MemReads; i++ {
			if c.Read(c.metaAddr(dir.Bank, dir.Row, i), 0, nil, cycle) {
				c.Stats.MetaReads++
			}
		}
		for i := 0; i < dir.MemWrites; i++ {
			if c.Write(c.metaAddr(dir.Bank, dir.Row, dir.MemReads+i), 0, cycle) {
				c.Stats.MetaWr++
			}
		}
	}
}

// metaAddr maps defense metadata (Hydra's in-DRAM counter table) to a
// reserved row range, spread across banks, so metadata traffic contends
// realistically with demand traffic.
func (c *Controller) metaAddr(bank, row, salt int) uint64 {
	metaBank := (bank + 1 + salt) % c.Sys.TotalBanks()
	metaRow := c.Cfg.RowsPerBank - 1 - (row % (c.Cfg.RowsPerBank / 16))
	return c.encode(metaBank, metaRow, 0)
}

// encode inverts Decode: the address of cache block col of (bank, row).
func (c *Controller) encode(bank, row, col int) uint64 {
	perRank := c.Cfg.BankGroups * c.Cfg.BanksPerGroup
	rank, bg, bk := bank/perRank, bank%perRank/c.Cfg.BanksPerGroup, bank%c.Cfg.BanksPerGroup
	block := uint64(row)
	block = block*uint64(c.blocksPerRow/c.Cfg.MOPWidth) + uint64(col/c.Cfg.MOPWidth)
	block = block*uint64(c.Cfg.Ranks) + uint64(rank)
	block = block*uint64(c.Cfg.BanksPerGroup) + uint64(bk)
	block = block*uint64(c.Cfg.BankGroups) + uint64(bg)
	block = block*uint64(c.Cfg.MOPWidth) + uint64(col%c.Cfg.MOPWidth)
	return block << 6
}

// issueColumn issues the column command of queue entry idx (of the
// write queue when writes, else the read queue) and removes it.
func (c *Controller) issueColumn(idx int, cycle uint64, writes bool) {
	if writes {
		r := &c.writeQ[idx]
		c.Sys.Column(int(r.bank), true, cycle)
		c.Stats.Writes++
		c.noteDequeued(int(r.bank), true)
		c.writeQ = append(c.writeQ[:idx], c.writeQ[idx+1:]...)
		return
	}
	r := &c.readQ[idx]
	dataEnd := c.Sys.Column(int(r.bank), false, cycle)
	c.Stats.Reads++
	c.noteDequeued(int(r.bank), false)
	if c.Sys.Banks[r.bank].HitStreak > 1 {
		c.Stats.RowHits++
	} else {
		c.Stats.RowMisses++
	}
	// Remove before invoking the completion: the callback may enqueue (a
	// dirty-eviction writeback), which must see the freed slot.
	done := r.Done
	c.readQ = append(c.readQ[:idx], c.readQ[idx+1:]...)
	if done != nil {
		done(dataEnd)
	}
}

// noteDequeued takes a completed column command's request out of the
// index; a column target is hit-class by definition.
func (c *Controller) noteDequeued(bank int, write bool) {
	bq := &c.banks[bank]
	if write {
		bq.reqW--
		bq.hitW--
		c.hitSumW--
	} else {
		bq.reqR--
		bq.hitR--
		c.hitSumR--
	}
	if bq.reqR|bq.reqW == 0 {
		c.pending[bank>>6] &^= 1 << (bank & 63)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
