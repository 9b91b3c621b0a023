// Package memctrl implements the cycle-level memory controller of the
// performance evaluation (§7.1, Table 4): 64-entry read/write queues,
// FR-FCFS scheduling with a column cap of 16, open-row policy, MOP
// address mapping, rank-level refresh, and the defense hook points —
// activation gating (throttling), preventive victim refreshes, row
// migrations, and metadata traffic.
package memctrl

import (
	"math/bits"
	"unsafe"

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
// the controller's queues (which store values contiguously: the FR-FCFS
// pick walks them in arrival order), so callers must not expect
// post-enqueue mutations to be observed.
type Request struct {
	Addr    uint64
	Done    func(cycle uint64) // read completion callback (may be nil)
	arrive  uint64
	retryAt uint64
	Core    int32
	fill    int32 // 1 + the miss register Fills completes (ReadFill); 0: none
	bank    int32 // global bank
	row     int32 // MC-visible row (pre-remap)
	phys    int32 // physical row after migration indirection
	Write   bool
	// The layout keeps a Request at 56 bytes, within one cache line per
	// queue entry the FR-FCFS walk examines.
}

// Filler completes the reads ReadFill enqueued: Complete(core, mshr,
// cycle) answers core's miss register mshr with the read's completion
// cycle. Unlike a Done callback, which names the requester by a closure,
// a (core, mshr) pair stays meaningful in another machine, so a queue
// saved by Save serves a Restore on any controller whose Fills is that
// machine's.
type Filler interface {
	Complete(core, mshr int, cycle uint64)
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
	Fills Filler // completes ReadFill's reads; nil after New and Reset
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

	// banks is the per-bank index of the queues — counts and what the
	// bank offers each queue (see bankQueued, offer) — and pending the
	// bitset of banks with anything queued. terms holds the device-wide
	// parts of the offers' ready times (see the term* indices); ready is
	// pick's scratch, the kind each pending bank has ready.
	banks   []bankQueued
	pending []uint64
	terms   []uint64
	ready   []offerKind

	blocksPerRow int
	writeMode    bool
	refSlice     []int // per-rank next refresh slice row
	rowsPerREF   int
	idleUntil    uint64 // Tick fast path: no-op until this cycle

	// mutated records command-free state changes within one Tick (a
	// defense throttle stamping retryAt, a victim op adopting an
	// already-open row), so Tick can report them as activity to the
	// event-driven engine: a cycle that changed anything must not be
	// treated as skippable.
	mutated bool
}

// bankQueued is one bank's line of the queue index: everything the
// controller needs to know about the requests queued for the bank
// without walking the queues, on one cache line. The arrays are indexed
// by queue: 0 the read queue, 1 the write queue.
type bankQueued struct {
	// req counts the bank's queued requests. It changes only at enqueue
	// and column completion: a request's bank is fixed.
	req [2]int32
	// hit counts those that target the bank's open row (hit-class
	// membership, regardless of any defense retry time). It changes at
	// the same two points and when the open row or the requests' physical
	// rows do (issueACTRaw, issuePRE, row-swap repair).
	hit [2]int32
	// retryUntil bounds from above every retryAt stamped on a request
	// queued for the bank: once it has passed, no stamp can still gate
	// anything and offer says all schedule and NextEvent need.
	retryUntil uint64
	// offer is what the bank offers each queue, kept by reoffer.
	offer [2]offer
}

// offerKind is the one command a bank offers a queue, in FR-FCFS
// priority order: the scheduler issues the oldest request of the lowest
// kind any bank has ready.
type offerKind uint8

const (
	offerNone        offerKind = iota // nothing queued
	offerColumn                       // RD/WR of a request to the open row
	offerACT                          // closed bank: open a request's row
	offerConflictPRE                  // open on a row no request of the queue targets
	offerCapPRE                       // hits queued but the column cap is reached: rotate
	offerKinds
)

// offer is a bank's standing answer to "what can this queue do here, and
// from when": a function of the bank's device state and the queue's
// req/hit counts only, so it is re-derived (reoffer) by the commands and
// enqueues that touch this bank and read everywhere else. The ready time
// is mem.System's *Earliest bound for the command, held in its two parts:
// at is the bank's own ready field, terms[term] the part shared
// device-wide, which the one command that moves it refreshes for every
// bank at once. The command is ready at cycle iff both are <= cycle:
// that is how mem.System defines its Can* predicates.
type offer struct {
	at   uint64
	term int32
	kind offerKind
}

// Indices into Controller.terms: termNone, then termsPerGroup terms per
// (rank, bank group), at termsPerGroup*(rank*BankGroups+group) plus:
const (
	termNone      = 0 // always zero: a PRE waits on nothing but its bank
	termACT       = 1 // mem.System.RankActEarliest
	termCol       = 2 // +queue: mem.System.RankColumnEarliest(read / write)
	termsPerGroup = 3
)

// never is later than any cycle: the ready time of an offer of nothing.
const never = ^uint64(0)

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
// still queued from a truncated run are recycled.
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
	c.Fills = nil
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
	c.refSlice = regrow(c.refSlice, cfg.Ranks)
	c.rowsPerREF = (cfg.RowsPerBank + refs - 1) / refs
	c.idleUntil = 0
	c.mutated = false
	// The index, zeroed: nothing pending, and every device-wide term of a
	// fresh mem.System is zero too.
	c.banks = regrow(c.banks, banks)
	c.pending = regrow(c.pending, (banks+63)/64)
	c.terms = regrow(c.terms, 1+termsPerGroup*cfg.Ranks*cfg.BankGroups)
	c.ready = regrow(c.ready, banks)
}

// regrow returns s resized to n zeroed elements, in place when its
// backing array fits (the pooled-reuse path allocates nothing).
func regrow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// recountHits recomputes bank's hit-class counts after its open row
// changed (ACT) or its queued requests' physical rows were remapped
// (swap repair). Each scan stops at the bank's last queued request (the
// index says how many there are), so an ACT to a bank nothing is queued
// for — a victim refresh, typically — scans nothing.
func (c *Controller) recountHits(bank int) {
	row := c.Sys.Banks[bank].OpenRow
	bq := &c.banks[bank]
	bq.hit[0] = countHits(c.readQ, bank, row, bq.req[0])
	bq.hit[1] = countHits(c.writeQ, bank, row, bq.req[1])
}

// reoffer re-derives what bank offers each queue. It is the only writer
// of bankQueued.offer and runs wherever an input moves: the bank's
// counts (enqueue, column completion), its open row or hit streak (ACT,
// column, PRE, swap repair), its ready times (the same commands, REF for
// every bank of the rank, BlockBank).
func (c *Controller) reoffer(bank int) {
	b := &c.Sys.Banks[bank]
	bq := &c.banks[bank]
	group := int32(termsPerGroup * (c.Sys.RankOf(bank)*c.Cfg.BankGroups + c.Sys.GroupOf(bank)))
	for dir := range bq.offer {
		o := offer{at: never}
		switch {
		case bq.req[dir] == 0:
		case b.OpenRow < 0:
			o = offer{kind: offerACT, at: b.ActReady, term: group + termACT}
		case bq.hit[dir] == 0:
			o = offer{kind: offerConflictPRE, at: b.PreReady}
		case b.HitStreak >= c.Cfg.ColumnCap:
			o = offer{kind: offerCapPRE, at: b.PreReady}
		default:
			o = offer{kind: offerColumn, at: b.ColReady, term: group + termCol + int32(dir)}
		}
		bq.offer[dir] = o
	}
}

// actTerms refreshes the ACT terms of rank's bank groups, after an ACT
// to the rank (tRRD, tFAW).
func (c *Controller) actTerms(rank int) {
	for g := 0; g < c.Cfg.BankGroups; g++ {
		c.terms[termACT+termsPerGroup*(rank*c.Cfg.BankGroups+g)] = c.Sys.RankActEarliest(rank, g)
	}
}

// colTerms refreshes the column terms after a RD/WR to rank. For every
// other rank only the data bus moved, and it only moves forward, so their
// terms are raised to it; rank's own spacing and turnaround moved too, so
// its groups' terms are re-derived.
func (c *Controller) colTerms(rank int) {
	rd, wr := c.Sys.BusEarliest(false), c.Sys.BusEarliest(true)
	groups := c.Cfg.BankGroups
	for i := termCol; i < len(c.terms); i += termsPerGroup {
		c.terms[i], c.terms[i+1] = max(c.terms[i], rd), max(c.terms[i+1], wr)
	}
	for g, i := 0, termCol+termsPerGroup*rank*groups; g < groups; g, i = g+1, i+termsPerGroup {
		c.terms[i] = c.Sys.RankColumnEarliest(rank, g, false)
		c.terms[i+1] = c.Sys.RankColumnEarliest(rank, g, true)
	}
}

// readyAt is the earliest cycle o's command can issue.
func (c *Controller) readyAt(o offer) uint64 { return max(o.at, c.terms[o.term]) }

// queue returns the read (0) or write (1) queue.
func (c *Controller) queue(dir int) []Request {
	if dir == 0 {
		return c.readQ
	}
	return c.writeQ
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
	return c.EnqueueRead(&Request{Addr: addr, Core: int32(core), Done: done}, cycle)
}

// ReadFill is Read completed through c.Fills: the read answers core's
// miss register mshr.
func (c *Controller) ReadFill(addr uint64, core, mshr int, cycle uint64) bool {
	return c.EnqueueRead(&Request{Addr: addr, Core: int32(core), fill: int32(mshr) + 1}, cycle)
}

// Write enqueues a posted write transaction; false when the queue is
// full.
func (c *Controller) Write(addr uint64, core int, cycle uint64) bool {
	return c.EnqueueWrite(&Request{Addr: addr, Core: int32(core)}, cycle)
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
	bank, row := c.Decode(r.Addr)
	return c.enqueue(r, bank, row, false, cycle)
}

// EnqueueWrite adds a copy of the write to the queue; false when the
// queue is full. Writes are posted: the issuer never waits for them.
func (c *Controller) EnqueueWrite(r *Request, cycle uint64) bool {
	bank, row := c.Decode(r.Addr)
	return c.enqueue(r, bank, row, true, cycle)
}

// enqueue adds a copy of r, resolved to (bank, row), to its queue; false
// when the queue is full.
func (c *Controller) enqueue(r *Request, bank, row int, write bool, cycle uint64) bool {
	q, limit, dir := &c.readQ, c.Cfg.ReadQ, 0
	if write {
		q, limit, dir = &c.writeQ, c.Cfg.WriteQ, 1
	}
	if len(*q) >= limit {
		return false
	}
	r.arrive = cycle
	r.bank, r.row = int32(bank), int32(row)
	r.phys = int32(c.physOf(bank, row))
	r.Write = write
	*q = append(*q, *r)
	bq := &c.banks[bank]
	bq.req[dir]++
	c.pending[bank>>6] |= 1 << (bank & 63)
	if c.Sys.Banks[bank].OpenRow == int(r.phys) {
		bq.hit[dir]++
	}
	c.reoffer(bank)
	c.setMode()
	// A dormant controller (the next Tick runs a full pass otherwise)
	// tightens its cached idle bound instead of discarding it: the new
	// request only adds to what its own bank can do — every other bank's
	// state is frozen, and a new row hit can only *suppress* (delay) a
	// conflict PRE — so the bank's candidate, from this cycle on, is all
	// that can precede the bound.
	if c.idleUntil > cycle {
		at := c.readyAt(bq.offer[dir])
		if bq.retryUntil > cycle {
			at = c.bankEventByRequest(bank, cycle)
		}
		c.idleUntil = min(c.idleUntil, at)
	}
	return true
}

// setMode sets the write-drain mode from the queue depths, with high/low
// watermarks: drain from 3/4 of the write queue (or whenever no read is
// queued) until a quarter is left. It runs wherever a depth moves —
// enqueue and column completion — and nowhere else, so the mode is a
// function of the depth history alone, which every tick schedule shares:
// a cycle the event engine skips cannot flip it.
func (c *Controller) setMode() {
	w := len(c.writeQ)
	c.writeMode = w >= c.Cfg.WriteQ*3/4 || (len(c.readQ) == 0 && w > 0) || (c.writeMode && w > c.Cfg.WriteQ/4)
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
// false, skipping the scheduling pass entirely. An enqueue tightens the
// cache to the new request's bank's candidate (see enqueue); every other
// state change happens inside an active tick, which recomputes the
// bound.
func (c *Controller) Tick(cycle uint64) bool {
	if cycle < c.idleUntil {
		return false
	}
	active := c.TickFull(cycle)
	// Cache the next actionable cycle after active ticks too, not just
	// idle ones: once this tick's command (or mutation) has landed, the
	// controller's state is frozen until the bound — by the same
	// argument that makes the bound exact after an idle tick — and any
	// enqueue in between re-tightens it. This spares the scheduling pass
	// that otherwise trails every issued command on the next cycle,
	// discovering nothing is ready.
	c.idleUntil = c.NextEvent(cycle)
	return active
}

// TickFull is Tick without the idle fast path: it always evaluates the
// full per-cycle scheduling pass. The simulator's per-cycle reference
// loop (the oracle of its differential tests) drives the controller
// through TickFull so the baseline the differential tests compare against contains none of the
// event machinery (the offers are kept by the commands themselves, not
// by it).
func (c *Controller) TickFull(cycle uint64) bool {
	c.mutated = false
	issued := c.tick(cycle)
	return issued || c.mutated
}

// tick is Tick's body; true when a DRAM command issued.
func (c *Controller) tick(cycle uint64) bool {
	// Refresh management: a due rank that can refresh does, before any
	// bank of another due rank closes for its own refresh.
	hold, blocking := false, -1
	for rank := 0; rank < c.Cfg.Ranks; rank++ {
		c.Sys.EndRefreshIfDone(rank, cycle)
		if !c.Sys.RefreshDue(rank, cycle) || c.Sys.Ranks[rank].Refreshing {
			continue
		}
		base := rank * c.Sys.BanksPerRank()
		if !c.Sys.AllPrecharged(rank) {
			for b := base; b < base+c.Sys.BanksPerRank() && blocking < 0; b++ {
				if c.Sys.Banks[b].OpenRow >= 0 && c.Sys.CanPRE(b, cycle) {
					blocking = b
				}
			}
			continue
		}
		// The rank waits out tRP after its last PRE, and no demand issues
		// meanwhile: it would reopen banks in front of the refresh, which
		// then stalls again.
		if c.Sys.RefEarliest(rank) > cycle {
			hold = true
			continue
		}
		c.Sys.REF(rank, cycle)
		for b := base; b < base+c.Sys.BanksPerRank(); b++ {
			c.reoffer(b)
		}
		c.Track.OnRefresh(rank, c.refSlice[rank], c.rowsPerREF)
		c.refSlice[rank] = (c.refSlice[rank] + c.rowsPerREF) % c.Cfg.RowsPerBank
		c.Stats.Refreshes++
		return true // REF consumes the command slot
	}
	if blocking >= 0 { // close a bank blocking a refresh
		c.Obs.RefreshStalls++
		c.issuePRE(blocking, cycle)
		return true
	}
	if hold {
		return false
	}

	// Preventive victim refreshes have priority over demand traffic:
	// they are the defense's security-critical action.
	if c.tickVictims(cycle) {
		return true
	}

	if c.writeMode && c.schedule(1, cycle) {
		return true
	}
	if c.schedule(0, cycle) {
		return true
	}
	// Opportunistically drain writes when reads have nothing to do.
	return !c.writeMode && c.schedule(1, cycle)
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
// EndRefreshIfDone, the one mutation a tick makes without acting, does
// not appear here: it only clears a flag no ready time depends on (REF
// wrote its window into the banks' ACT ready times). Both queues are
// considered in either write-drain mode: the mode only orders them.
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
	// Demand and write queues: one candidate per pending bank, the
	// earlier of what it offers the two queues (both regardless of the
	// drain mode, see above). No queue is walked unless a retry stamp on
	// the bank may still be live.
	scanned := false
	for w, word := range c.pending {
		for ; word != 0; word &= word - 1 {
			bank := w<<6 | bits.TrailingZeros64(word)
			bq := &c.banks[bank]
			at := min(c.readyAt(bq.offer[0]), c.readyAt(bq.offer[1]))
			if bq.retryUntil > floor {
				if !scanned {
					scanned = true
					c.Obs.NextEventScans++
				}
				at = c.bankEventByRequest(bank, floor)
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
// exactly as an unstamped one does — which is why the offers alone
// decide every other bank. Here the stamps matter, but only the
// earliest of each class: the hits of a queue share one device time, so
// the earliest-stamped one acts first, and it is also the one whose
// stamp starts the suppression of that queue's conflicts; a conflict
// wake-up is real only if it lands strictly before that, and the
// earliest-stamped conflict is the one that can.
func (c *Controller) bankEventByRequest(bank int, floor uint64) uint64 {
	b := &c.Sys.Banks[bank]
	bq := &c.banks[bank]
	at, latest := never, uint64(0)
	for write, q := range [2][]Request{c.readQ, c.writeQ} {
		hit, other := never, never // earliest stamp among the open row's requests, and the rest
		for i, left := 0, bq.req[write]; left > 0; i++ {
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
			if other != never {
				at = min(at, max(c.Sys.ActEarliest(bank), other))
			}
			continue
		}
		if hit != never {
			ready := c.Sys.PreEarliest(bank) // column-cap rotation
			if b.HitStreak < c.Cfg.ColumnCap {
				ready = c.Sys.ColumnEarliest(bank, write == 1)
			}
			at = min(at, max(ready, hit))
		}
		if other != never {
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
	// precharged), the REF itself once no bank blocks it (RefEarliest:
	// tRP after the rank's last PRE), or the end of the refresh already in
	// flight.
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
		if !blocked && consider(c.Sys.RefEarliest(rank)) {
			return floor
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
			if consider(max(v.preAt, c.Sys.PreEarliest(v.bank))) {
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
				v.preAt = max(cycle, c.Sys.PreEarliest(v.bank))
				c.mutated = true
				continue
			}
			if b.OpenRow >= 0 {
				if c.Sys.CanPRE(v.bank, cycle) {
					c.issuePRE(v.bank, cycle)
					return true
				}
				continue
			}
			if c.Sys.CanACT(v.bank, cycle) {
				c.issueACTRaw(v.bank, v.row, cycle)
				v.opened = true
				v.preAt = c.Sys.PreEarliest(v.bank)
				return true
			}
			continue
		}
		if cycle >= v.preAt {
			if c.Sys.CanPRE(v.bank, cycle) {
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

// schedule applies FR-FCFS to queue dir: it issues what pick chose. An
// ACT goes through the defense, so it may end in a throttle instead.
func (c *Controller) schedule(dir int, cycle uint64) bool {
	q := c.queue(dir)
	if len(q) == 0 {
		return false
	}
	c.Obs.ScanPasses++
	kind, i := c.pick(dir, cycle)
	c.Obs.ScanEntries += uint64(i + 1)
	switch kind {
	case offerNone:
		return false
	case offerColumn:
		c.issueColumn(i, cycle, dir == 1)
	case offerACT:
		return c.tryACT(&q[i], cycle)
	default:
		c.issuePRE(int(q[i].bank), cycle)
	}
	return true
}

// pick is FR-FCFS over queue dir: the oldest request of the best class
// any bank has ready at cycle — a row hit's column command, else an ACT
// to a closed bank, else the PRE of a bank open on a row none of the
// queue's eligible requests targets (open-row policy: a bank is never
// closed under a hit), else the PRE that rotates a bank at the column
// cap. The classes are the offer kinds, so one pass over the pending
// banks notes the kind each has ready (every queued request's bank is a
// pending one, so the scratch needs no clearing), and the first request
// in arrival order whose bank has the best kind ready is the choice: i is
// its queue index and the number of entries the walk examined less one,
// -1 when nothing is ready. pick changes no scheduling state.
func (c *Controller) pick(dir int, cycle uint64) (kind offerKind, i int) {
	have := uint(0)
	for w, word := range c.pending {
		for ; word != 0; word &= word - 1 {
			bank := w<<6 | bits.TrailingZeros64(word)
			bq := &c.banks[bank]
			o := bq.offer[dir]
			if bq.retryUntil > cycle {
				o = c.offerByRequest(bank, dir, cycle)
			}
			k := o.kind
			if max(o.at, c.terms[o.term]) > cycle {
				k = offerNone
			}
			c.ready[bank] = k
			have |= 1 << k
		}
	}
	have &^= 1 << offerNone
	if have == 0 {
		return offerNone, -1
	}
	kind = offerKind(bits.TrailingZeros(have))
	byRow := kind == offerColumn || kind == offerCapPRE
	q := c.queue(dir)
	for i := range q {
		r := &q[i]
		// The stamp test only ever rejects on a bank offerByRequest
		// resolved; it found this class there through an eligible request.
		if c.ready[r.bank] != kind || cycle < r.retryAt {
			continue
		}
		if byRow && int(r.phys) != c.Sys.Banks[r.bank].OpenRow {
			continue
		}
		return kind, i
	}
	panic("memctrl: a bank offers a command no queued request backs")
}

// offerByRequest is what bank offers queue dir at cycle while a defense
// retry may still gate some of its requests: only requests whose stamp
// has passed are eligible. The stored offer stands when the class it
// names has an eligible request; stamped hits neither earn a column
// command nor hold the row open, so with none of them eligible the
// bank's eligible conflicts get their PRE.
func (c *Controller) offerByRequest(bank, dir int, cycle uint64) offer {
	bq := &c.banks[bank]
	q := c.queue(dir)
	open := c.Sys.Banks[bank].OpenRow
	other := false
	for i, left := 0, bq.req[dir]; left > 0; i++ {
		r := &q[i]
		if int(r.bank) != bank {
			continue
		}
		left--
		if r.retryAt > cycle {
			continue
		}
		if int(r.phys) == open {
			return bq.offer[dir] // column or cap rotation
		}
		other = true
	}
	o := bq.offer[dir]
	switch {
	case !other:
		return offer{at: never}
	case o.kind == offerColumn || o.kind == offerCapPRE:
		return offer{kind: offerConflictPRE, at: c.Sys.PreEarliest(bank)}
	}
	return o // ACT or conflict PRE
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

func (c *Controller) issuePRE(bank int, cycle uint64) {
	row, on := c.Sys.PRE(bank, cycle)
	c.banks[bank].hit = [2]int32{}
	c.reoffer(bank)
	c.Track.OnPre(bank, row, on)
	c.Stats.Pres++
}

// issueACTRaw opens a row without consulting the defense (internal
// operations: victim refreshes are themselves exempt, as in real
// controllers where maintenance traffic bypasses the tracker).
func (c *Controller) issueACTRaw(bank, row int, cycle uint64) {
	c.Sys.ACT(bank, row, cycle)
	c.recountHits(bank)
	c.actTerms(c.Sys.RankOf(bank))
	c.reoffer(bank)
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
		c.reoffer(dir.Bank)
		c.Track.OnRowsSwapped(dir.Bank, dir.Row, dir.DstRow)
		c.Stats.Migrations++
		c.Obs.DirSwapRows++
	case mitigation.ExtraMem:
		c.Obs.DirExtraMem++
		for i := 0; i < dir.MemReads; i++ {
			bank, row := c.metaRow(dir.Bank, dir.Row, i)
			if c.enqueue(&Request{}, bank, row, false, cycle) {
				c.Stats.MetaReads++
			}
		}
		for i := 0; i < dir.MemWrites; i++ {
			bank, row := c.metaRow(dir.Bank, dir.Row, dir.MemReads+i)
			if c.enqueue(&Request{}, bank, row, true, cycle) {
				c.Stats.MetaWr++
			}
		}
	}
}

// metaRow maps defense metadata (Hydra's in-DRAM counter table) to a
// reserved row range, spread across banks, so metadata traffic contends
// realistically with demand traffic.
func (c *Controller) metaRow(bank, row, salt int) (metaBank, metaRow int) {
	metaBank = (bank + 1 + salt) % c.Sys.TotalBanks()
	metaRow = c.Cfg.RowsPerBank - 1 - (row % (c.Cfg.RowsPerBank / 16))
	return metaBank, metaRow
}

// issueColumn issues the column command of queue entry idx (of the
// write queue when writes, else the read queue) and removes it from the
// queue and the index; a column target is hit-class by definition.
func (c *Controller) issueColumn(idx int, cycle uint64, writes bool) {
	q, dir := &c.readQ, 0
	if writes {
		q, dir = &c.writeQ, 1
	}
	r := (*q)[idx]
	bank := int(r.bank)
	dataEnd := c.Sys.Column(bank, writes, cycle)
	c.colTerms(c.Sys.RankOf(bank))
	bq := &c.banks[bank]
	bq.req[dir]--
	bq.hit[dir]--
	if bq.req[0]|bq.req[1] == 0 {
		c.pending[bank>>6] &^= 1 << (bank & 63)
	}
	c.reoffer(bank)
	// Remove before invoking the completion: the callback may enqueue (a
	// dirty-eviction writeback), which must see the freed slot.
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	c.setMode()
	if writes {
		c.Stats.Writes++
		return
	}
	c.Stats.Reads++
	if c.Sys.Banks[bank].HitStreak > 1 {
		c.Stats.RowHits++
	} else {
		c.Stats.RowMisses++
	}
	if r.Done != nil {
		r.Done(dataEnd)
	} else if r.fill != 0 {
		c.Fills.Complete(int(r.Core), int(r.fill-1), dataEnd)
	}
}

// State is a controller's saved state, as Save copied it for a later
// Restore: its DRAM device array, both queues, the queue index and its
// device-wide terms, each rank's refresh position, the write-drain mode,
// the cached idle bound, Stats and Obs.
type State struct {
	sys           mem.State
	readQ, writeQ []Request
	banks         []bankQueued
	pending       []uint64
	terms         []uint64
	refSlice      []int
	writeMode     bool
	idleUntil     uint64
	stats         Stats
	obs           obs.ControllerCounters
}

// Save copies c's state into st, reusing st's slices, between two ticks,
// and reports whether it could. A controller whose defense has acted — a
// preventive refresh pending or rows migrated — is not saved (those
// tables span every row), and neither is one holding a read that
// completes through a Done callback rather than through Fills.
func (c *Controller) Save(st *State) bool {
	if len(c.victims) != 0 || c.remapped {
		return false
	}
	for i := range c.readQ {
		if c.readQ[i].Done != nil {
			return false
		}
	}
	c.Sys.Save(&st.sys)
	st.readQ = append(st.readQ[:0], c.readQ...)
	st.writeQ = append(st.writeQ[:0], c.writeQ...)
	st.banks = append(st.banks[:0], c.banks...)
	st.pending = append(st.pending[:0], c.pending...)
	st.terms = append(st.terms[:0], c.terms...)
	st.refSlice = append(st.refSlice[:0], c.refSlice...)
	st.writeMode, st.idleUntil = c.writeMode, c.idleUntil
	st.stats, st.obs = c.Stats, c.Obs
	return true
}

// Restore sets c's state to st. c must be freshly Reset to the Config
// and timing st was saved under; its defense, tracker and Fills stay its
// own, and its queues' reads complete through its Fills. It allocates
// nothing once c's queues have held as many requests.
func (c *Controller) Restore(st *State) {
	if len(st.banks) != len(c.banks) || len(st.terms) != len(c.terms) || len(st.refSlice) != len(c.refSlice) {
		panic("memctrl: Restore of a state saved under another Config")
	}
	c.Sys.Restore(&st.sys)
	c.readQ = append(c.readQ[:0], st.readQ...)
	c.writeQ = append(c.writeQ[:0], st.writeQ...)
	copy(c.banks, st.banks)
	copy(c.pending, st.pending)
	copy(c.terms, st.terms)
	copy(c.refSlice, st.refSlice)
	c.writeMode, c.idleUntil = st.writeMode, st.idleUntil
	c.Stats, c.Obs = st.stats, st.obs
}

// Bytes is the memory st's saved state occupies.
func (st *State) Bytes() int {
	return int(unsafe.Sizeof(*st)) + st.sys.Bytes() - int(unsafe.Sizeof(st.sys)) +
		int(unsafe.Sizeof(Request{}))*(len(st.readQ)+len(st.writeQ)) +
		int(unsafe.Sizeof(bankQueued{}))*len(st.banks) + 8*(len(st.pending)+len(st.terms)+len(st.refSlice))
}
