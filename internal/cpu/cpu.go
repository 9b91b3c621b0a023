// Package cpu models the simulated cores of Table 4: 4-wide issue with
// a 128-entry instruction window, trace-driven, each with a private
// 2 MiB last-level cache slice. The model follows the standard
// simplified out-of-order abstraction used by DRAM studies (and
// Ramulator's O3 core): non-memory instructions retire at full width,
// memory instructions occupy window entries until their data returns,
// and a full window stalls issue.
package cpu

import (
	"math"
	"slices"
	"unsafe"
)

// Config sizes a core.
type Config struct {
	IssueWidth int
	Window     int
	LLCBytes   int
	LLCWays    int
	LLCHitLat  uint64
	MSHRs      int
	// Uncached makes every access bypass the LLC — the model of a
	// clflush-based RowHammer attacker, whose accesses always reach
	// DRAM (Fig. 13's adversarial patterns).
	Uncached bool
}

// DefaultConfig returns Table 4's core configuration.
func DefaultConfig() Config {
	return Config{
		IssueWidth: 4,
		Window:     128,
		LLCBytes:   2 << 20,
		LLCWays:    16,
		LLCHitLat:  30,
		MSHRs:      16,
	}
}

// Generator produces the core's instruction stream: gap non-memory
// instructions followed by one memory access.
type Generator interface {
	Next() (gap int, addr uint64, write bool)
}

// MemPort is the core's connection to the memory controller.
type MemPort interface {
	// Read requests a cache line for miss register mshr; the memory
	// system answers with the core's Complete(mshr, cycle). False means
	// the controller queue was full (retry next cycle). A request names
	// its register instead of carrying a callback, so a queued request
	// stays valid when its controller's state is copied to another
	// machine (a resumed simulation).
	Read(addr uint64, mshr int, cycle uint64) bool
	// Write posts a writeback; false when the queue is full.
	Write(addr uint64, cycle uint64) bool
}

const pendingMem = math.MaxUint64

// fetchSlot is one in-flight line fetch's bookkeeping: the window entry
// to wake (-1 for stores) and the line being installed. Slots are
// preallocated per MSHR so issuing a fetch allocates nothing.
type fetchSlot struct {
	rob   int
	addr  uint64
	dirty bool
}

// Core is one simulated core.
type Core struct {
	ID  int
	Cfg Config

	gen  Generator
	port MemPort
	llc  *llc

	rob       []uint64    // completion cycle per entry; pendingMem = in flight
	fetch     []fetchSlot // per-MSHR in-flight fetch records
	fetchFree []int32     // free fetch-slot indices (stack)

	regs
}

// regs is the core's scalar state, in one value so that Save and Restore
// copy it whole and Reset zeroes it whole.
type regs struct {
	head  int // the window's oldest entry
	count int // entries in the window

	gap      int
	haveMem  bool
	memAddr  uint64
	memWrite bool

	inflight int

	// missMemo caches one negative LLC lookup: a back-pressured core
	// retries its pending access every tick, and a miss both mutates
	// nothing and can only turn into a hit through an install — so the
	// repeated lookups are skipped until Complete installs a line.
	missMemoAddr  uint64
	missMemoValid bool

	Retired       uint64
	WarmupTarget  uint64
	MeasureTarget uint64
	startCycle    uint64
	doneCycle     uint64
	started       bool
	finished      bool

	DroppedWB uint64
}

// New builds a core over its trace and memory port.
func New(id int, cfg Config, gen Generator, port MemPort) *Core {
	c := &Core{}
	c.Reset(id, cfg, gen, port)
	return c
}

// Reset reinitializes the core in place to the state
// New(id, cfg, gen, port) produces, retaining the window, cache, and
// MSHR allocations when cfg still fits them — the pooled-reuse path
// between sweep cells.
func (c *Core) Reset(id int, cfg Config, gen Generator, port MemPort) {
	c.ID = id
	c.gen = gen
	c.port = port
	if c.llc == nil || c.Cfg.LLCBytes != cfg.LLCBytes || c.Cfg.LLCWays != cfg.LLCWays {
		c.llc = newLLC(cfg.LLCBytes, cfg.LLCWays)
	} else {
		c.llc.reset()
	}
	if len(c.rob) != cfg.Window {
		c.rob = make([]uint64, cfg.Window)
	}
	if len(c.fetch) != cfg.MSHRs {
		c.fetch = make([]fetchSlot, cfg.MSHRs)
		c.fetchFree = make([]int32, 0, cfg.MSHRs)
	}
	c.fetchFree = c.fetchFree[:0]
	for i := cfg.MSHRs - 1; i >= 0; i-- {
		c.fetchFree = append(c.fetchFree, int32(i))
	}
	c.Cfg = cfg
	c.regs = regs{}
}

// State is a core's saved state, as Save copied it for a later Restore:
// its scalar state, the live entries of its window, its miss registers,
// and the valid lines of its LLC. The generator's position is not part
// of it: whoever resumes the core seeks its generator (trace.Seeker).
type State struct {
	regs      regs
	window    []uint64 // the count live window entries, oldest first
	fetch     []fetchSlot
	fetchFree []int32
	llc       llcState
}

// Save copies c's state into st, reusing st's slices, and reports
// whether it could (llc.save says what an LLC must fit).
func (c *Core) Save(st *State) bool {
	st.regs = c.regs
	st.window = slices.Grow(st.window[:0], c.count)
	for i := 0; i < c.count; i++ {
		st.window = append(st.window, c.rob[(c.head+i)%len(c.rob)])
	}
	st.fetch = append(st.fetch[:0], c.fetch...)
	st.fetchFree = append(st.fetchFree[:0], c.fetchFree...)
	return c.llc.save(&st.llc)
}

// Restore sets c's state to st. c must be freshly Reset to the Config
// st was saved under; its ID, generator and port stay its own. It
// allocates nothing.
func (c *Core) Restore(st *State) {
	if len(st.fetch) != len(c.fetch) || len(st.window) > len(c.rob) || len(st.llc.fill) != c.llc.sets {
		panic("cpu: Restore of a state saved under another Config")
	}
	c.regs = st.regs
	for i, at := range st.window {
		c.rob[(c.head+i)%len(c.rob)] = at
	}
	copy(c.fetch, st.fetch)
	c.fetchFree = append(c.fetchFree[:0], st.fetchFree...)
	c.llc.restore(&st.llc)
}

// Bytes is the memory st's saved state occupies.
func (st *State) Bytes() int {
	return int(unsafe.Sizeof(*st)) + 8*len(st.window) + int(unsafe.Sizeof(fetchSlot{}))*len(st.fetch) +
		4*len(st.fetchFree) + len(st.llc.fill) + 3*len(st.llc.lines)
}

// Finished reports whether the core has retired its measurement target.
func (c *Core) Finished() bool { return c.finished }

// Started reports whether the core has retired past its warmup target
// (entered the measurement region).
func (c *Core) Started() bool { return c.started }

// StartCycle returns the cycle the measurement region began (valid once
// Started).
func (c *Core) StartCycle() uint64 { return c.startCycle }

// DoneCycle returns the cycle the measurement region ended (valid once
// Finished).
func (c *Core) DoneCycle() uint64 { return c.doneCycle }

// IPC returns the measured instructions per cycle (0 until finished).
func (c *Core) IPC() float64 {
	if !c.finished || c.doneCycle <= c.startCycle {
		return 0
	}
	return float64(c.MeasureTarget) / float64(c.doneCycle-c.startCycle)
}

// Tick advances the core one cycle: retire from the window head, then
// issue into the window. It reports whether the core made any progress
// (retired or issued at least one instruction); a false return means
// the tick was a no-op — the core's state is bit-identical to not
// having ticked at all, which is what lets the event-driven engine in
// sim.Run skip its idle cycles.
func (c *Core) Tick(cycle uint64) bool {
	progress := false
	// Retire.
	for n := 0; n < c.Cfg.IssueWidth && c.count > 0; n++ {
		if c.rob[c.head] > cycle {
			break
		}
		c.head = (c.head + 1) % len(c.rob)
		c.count--
		c.Retired++
		progress = true
		if !c.started && c.Retired >= c.WarmupTarget {
			c.started = true
			c.startCycle = cycle
		}
		if c.started && !c.finished && c.Retired >= c.WarmupTarget+c.MeasureTarget {
			c.finished = true
			c.doneCycle = cycle
		}
	}
	// Issue.
	for n := 0; n < c.Cfg.IssueWidth && c.count < len(c.rob); n++ {
		if c.gap == 0 && !c.haveMem {
			g, addr, wr := c.gen.Next()
			c.gap = g
			c.haveMem = true
			c.memAddr = addr &^ 63
			c.memWrite = wr
		}
		if c.gap > 0 {
			c.push(cycle + 1)
			c.gap--
			progress = true
			continue
		}
		if !c.issueMem(cycle) {
			break // memory system back-pressure: retry next cycle
		}
		progress = true
	}
	return progress
}

// NextEvent returns the earliest cycle after cycle at which an idle
// core could make progress on its own: the completion time of the
// window head. A core blocked on memory (head in flight, or issue
// back-pressured by MSHRs or a full controller queue) returns
// math.MaxUint64 — it can only be unblocked by memory-controller
// activity, after which the driver re-ticks every component anyway.
// Only meaningful after a Tick(cycle) that returned false.
func (c *Core) NextEvent(cycle uint64) uint64 {
	if c.count > 0 && c.rob[c.head] != pendingMem && c.rob[c.head] > cycle {
		return c.rob[c.head]
	}
	return math.MaxUint64
}

func (c *Core) push(doneAt uint64) int {
	slot := (c.head + c.count) % len(c.rob)
	c.rob[slot] = doneAt
	c.count++
	return slot
}

// issueMem tries to issue the pending memory instruction; false on
// back-pressure.
func (c *Core) issueMem(cycle uint64) bool {
	addr := c.memAddr
	if !c.Cfg.Uncached && !(c.missMemoValid && c.missMemoAddr == addr) {
		if c.llc.lookup(addr, c.memWrite) {
			c.push(cycle + c.Cfg.LLCHitLat)
			c.haveMem = false
			return true
		}
		c.missMemoAddr, c.missMemoValid = addr, true
	}
	if c.inflight >= c.Cfg.MSHRs {
		return false
	}
	if c.memWrite {
		// Write miss: fetch for ownership; the store itself is posted
		// and completes like a hit, while the line fetch proceeds in
		// the background.
		if !c.fetchLine(addr, true, cycle, -1) {
			return false
		}
		c.push(cycle + c.Cfg.LLCHitLat)
		c.haveMem = false
		return true
	}
	slot := c.push(pendingMem)
	if !c.fetchLine(addr, false, cycle, slot) {
		// Roll back the issue.
		c.count--
		return false
	}
	c.haveMem = false
	return true
}

// fetchLine requests a line from memory; on completion it installs the
// line (emitting a writeback for a dirty eviction) and wakes the window
// slot (slot < 0 for stores). The fetch's record lives in a
// preallocated MSHR slot, so the per-access path allocates nothing. A
// free slot always exists here: issueMem bounds inflight by Cfg.MSHRs
// before calling.
func (c *Core) fetchLine(addr uint64, dirty bool, cycle uint64, slot int) bool {
	i := c.fetchFree[len(c.fetchFree)-1]
	c.fetch[i] = fetchSlot{rob: slot, addr: addr, dirty: dirty}
	if !c.port.Read(addr, int(i), cycle) {
		return false
	}
	c.fetchFree = c.fetchFree[:len(c.fetchFree)-1]
	c.inflight++
	return true
}

// Complete answers the read of miss register i, which the memory
// system finished at cycle done: the line is installed and its window
// entry woken.
func (c *Core) Complete(i int, done uint64) {
	f := c.fetch[i]
	c.inflight--
	c.fetchFree = append(c.fetchFree, int32(i))
	if !c.Cfg.Uncached {
		c.missMemoValid = false // the install may satisfy the memoized miss
		if evicted, wb := c.llc.install(f.addr, f.dirty); evicted {
			if !c.port.Write(wb, done) {
				c.DroppedWB++
			}
		}
	}
	if f.rob >= 0 {
		c.rob[f.rob] = done
	}
}

// llc is a set-associative LRU cache. Ages are stored as packed bytes
// in uint64 words so that touch — which ages every way of a set on
// every access, the single hottest loop of the core model — runs as a
// couple of SWAR operations instead of a byte walk.
type llc struct {
	sets     int
	ways     int
	lruWords int      // uint64 words of packed age bytes per set
	tags     []uint64 // tag per way; 0 = invalid (tags store line|1)
	dirty    []bool
	lru      []uint64
}

func newLLC(bytes, ways int) *llc {
	sets := bytes / 64 / ways
	if sets < 1 {
		sets = 1
	}
	return &llc{
		sets:     sets,
		ways:     ways,
		lruWords: (ways + 7) / 8,
		tags:     make([]uint64, sets*ways),
		dirty:    make([]bool, sets*ways),
		lru:      make([]uint64, sets*((ways+7)/8)),
	}
}

// reset invalidates every line in place (tag 0 = invalid).
func (l *llc) reset() {
	clear(l.tags)
	clear(l.dirty)
	clear(l.lru)
}

// llcState is an LLC's valid lines, as save listed them. A set's valid
// ways are a prefix of it (install fills the first invalid way, and
// nothing but reset invalidates one), so each set is its count of valid
// ways and then, per way, the line and its LRU age. A line is its tag
// over the set count (the set is implied) less the lowest such value,
// base, with the dirty bit on top: a core caches only its own footprint,
// so the offsets of the catalog's workloads span 4 096 values at most.
type llcState struct {
	fill  []uint8 // valid ways per set
	base  uint64
	lines []uint16
	ages  []uint8
}

// savedDirty is a saved line's dirty bit.
const savedDirty = 1 << 15

// save lists the valid lines into st, reusing its slices, and reports
// whether they fit: at most 255 ways, and lines whose offsets from base
// fit 15 bits (a footprint under 4 GiB at the default geometry).
func (l *llc) save(st *llcState) bool {
	if l.ways > math.MaxUint8 {
		return false
	}
	lo, hi, valid := uint64(math.MaxUint64), uint64(0), 0
	for _, tag := range l.tags {
		if tag != 0 {
			lo, hi, valid = min(lo, l.savedTag(tag)), max(hi, l.savedTag(tag)), valid+1
		}
	}
	if lo <= hi && hi-lo >= savedDirty {
		return false
	}
	st.fill, st.base = slices.Grow(st.fill[:0], l.sets), lo
	st.lines, st.ages = slices.Grow(st.lines[:0], valid), slices.Grow(st.ages[:0], valid)
	for set := 0; set < l.sets; set++ {
		base, n := set*l.ways, 0
		for ; n < l.ways && l.tags[base+n] != 0; n++ {
			line := uint16(l.savedTag(l.tags[base+n]) - lo)
			if l.dirty[base+n] {
				line |= savedDirty
			}
			st.lines = append(st.lines, line)
			st.ages = append(st.ages, l.age(set, n))
		}
		st.fill = append(st.fill, uint8(n))
	}
	return true
}

// savedTag is a valid tag's line number over the set count.
func (l *llc) savedTag(tag uint64) uint64 { return (tag &^ (1 << 63)) / uint64(l.sets) }

// restore fills an empty cache with the lines of st. The ages of invalid
// ways stay zero: install never reads one (it takes the first invalid
// way before comparing ages), and touch zeroes it on the fill.
func (l *llc) restore(st *llcState) {
	i := 0
	for set, n := range st.fill {
		base := set * l.ways
		for w := 0; w < int(n); w++ {
			line := st.lines[i]
			l.tags[base+w] = (st.base+uint64(line&^savedDirty))*uint64(l.sets) + uint64(set) | 1<<63
			l.dirty[base+w] = line&savedDirty != 0
			l.lru[set*l.lruWords+w/8] |= uint64(st.ages[i]) << (uint(w%8) * 8)
			i++
		}
	}
}

// age returns way's LRU age within set.
func (l *llc) age(set, way int) uint8 {
	return uint8(l.lru[set*l.lruWords+way/8] >> (uint(way%8) * 8))
}

func (l *llc) setOf(addr uint64) int { return int(addr >> 6 % uint64(l.sets)) }

// lookup probes the cache, updating LRU and the dirty bit on a write
// hit.
func (l *llc) lookup(addr uint64, write bool) bool {
	set := l.setOf(addr)
	base := set * l.ways
	key := addr>>6 | 1<<63
	for w := 0; w < l.ways; w++ {
		if l.tags[base+w] == key {
			l.touch(set, w)
			if write {
				l.dirty[base+w] = true
			}
			return true
		}
	}
	return false
}

// install fills a line, returning a writeback address if a dirty line
// was evicted.
func (l *llc) install(addr uint64, dirty bool) (evictedDirty bool, wbAddr uint64) {
	set := l.setOf(addr)
	base := set * l.ways
	key := addr>>6 | 1<<63
	victim, maxAge := 0, uint8(0)
	for w := 0; w < l.ways; w++ {
		if l.tags[base+w] == 0 {
			victim = w
			break
		}
		if l.tags[base+w] == key {
			// Already present (racing fill); refresh state.
			l.dirty[base+w] = l.dirty[base+w] || dirty
			l.touch(set, w)
			return false, 0
		}
		if a := l.age(set, w); a >= maxAge {
			victim, maxAge = w, a
		}
	}
	if l.tags[base+victim] != 0 && l.dirty[base+victim] {
		evictedDirty = true
		wbAddr = l.tags[base+victim] &^ (1 << 63) << 6
	}
	l.tags[base+victim] = key
	l.dirty[base+victim] = dirty
	l.touch(set, victim)
	return evictedDirty, wbAddr
}

// touch ages every way of the set by one (saturating at 255) and
// zeroes the touched way — classic aging LRU, eight ways per SWAR step.
// Age bytes beyond ways in the set's last word are never read.
func (l *llc) touch(set, way int) {
	const (
		low7  = 0x7F7F7F7F7F7F7F7F
		highs = 0x8080808080808080
	)
	base := set * l.lruWords
	for i := 0; i < l.lruWords; i++ {
		x := l.lru[base+i]
		v := ^x // bytes at 255 become 0
		// High bit per byte of v that is nonzero = bytes not yet
		// saturated; add 1 to exactly those.
		m := ((v&low7 + low7) | v) & highs
		l.lru[base+i] = x + m>>7
	}
	w := base + way/8
	l.lru[w] &^= 0xFF << (uint(way%8) * 8)
}
