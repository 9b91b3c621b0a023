package memctrl

import (
	"math/rand"
	"testing"

	"svard/internal/dram"
	"svard/internal/mem"
	"svard/internal/mem/protocheck"
	"svard/internal/mitigation"
)

func newMC(def mitigation.Defense, tr Tracker) *Controller {
	cfg := DefaultConfig(4096)
	t := mem.CyclesFrom(dram.DDR4Timing(3200), cfg.CPUGHz)
	return New(cfg, t, def, tr)
}

func runCycles(c *Controller, from, n uint64) uint64 {
	for cyc := from; cyc < from+n; cyc++ {
		c.Tick(cyc)
	}
	return from + n
}

func TestDecodeMOPLocality(t *testing.T) {
	c := newMC(nil, nil)
	// Four consecutive cache blocks share a bank and row (MOP width 4).
	b0, r0 := c.Decode(0)
	for blk := uint64(1); blk < 4; blk++ {
		b, r := c.Decode(blk * 64)
		if b != b0 || r != r0 {
			t.Fatalf("block %d maps to %d/%d, want %d/%d", blk, b, r, b0, r0)
		}
	}
	// The fifth block moves to another bank group.
	b4, _ := c.Decode(4 * 64)
	if b4 == b0 {
		t.Error("MOP did not interleave after the group")
	}
	// Decode stays in range everywhere.
	for addr := uint64(0); addr < 1<<30; addr += 977 * 64 {
		b, r := c.Decode(addr)
		if b < 0 || b >= c.Sys.TotalBanks() || r < 0 || r >= c.Cfg.RowsPerBank {
			t.Fatalf("decode out of range: addr %d -> %d/%d", addr, b, r)
		}
	}
}

func TestReadCompletes(t *testing.T) {
	c := newMC(nil, nil)
	doneAt := uint64(0)
	ok := c.EnqueueRead(&Request{Addr: 0x1000, Done: func(cyc uint64) { doneAt = cyc }}, 0)
	if !ok {
		t.Fatal("enqueue failed")
	}
	runCycles(c, 0, 2000)
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	if c.Stats.Reads != 1 || c.Stats.Acts != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestRowHitsServedBeforeConflicts(t *testing.T) {
	c := newMC(nil, nil)
	var order []int
	mk := func(id int, addr uint64) *Request {
		return &Request{Addr: addr, Done: func(uint64) { order = append(order, id) }}
	}
	// Request 0 opens a row; requests 1 and 2 are a conflict (same bank,
	// different row) and a hit (same row).
	c.EnqueueRead(mk(0, 0), 0)
	runCycles(c, 0, 300)
	conflictAddr := uint64(4096) * 64 * 4 // jumps the row bits
	b0, r0 := c.Decode(0)
	bC, rC := c.Decode(conflictAddr)
	if b0 != bC || r0 == rC {
		// ensure it's truly a same-bank conflict
	}
	c.EnqueueRead(mk(1, conflictAddr), 300)
	c.EnqueueRead(mk(2, 64), 300) // same row as request 0 (MOP block 1)
	runCycles(c, 300, 4000)
	if len(order) != 3 {
		t.Fatalf("completed %d of 3", len(order))
	}
	if order[1] != 2 {
		t.Errorf("row hit not prioritized: order %v", order)
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newMC(nil, nil)
	n := 0
	for i := 0; i < 200; i++ {
		if c.EnqueueRead(&Request{Addr: uint64(i) * 64 * 1024}, 0) {
			n++
		}
	}
	if n != c.Cfg.ReadQ {
		t.Errorf("accepted %d reads, queue size %d", n, c.Cfg.ReadQ)
	}
}

func TestWritesDrain(t *testing.T) {
	c := newMC(nil, nil)
	for i := 0; i < 50; i++ {
		if !c.EnqueueWrite(&Request{Addr: uint64(i) * 64 * 257}, 0) {
			t.Fatalf("write %d rejected", i)
		}
	}
	runCycles(c, 0, 50_000)
	if rd, wr := c.QueueLens(); rd != 0 || wr != 0 {
		t.Errorf("queues not drained: %d/%d", rd, wr)
	}
	if c.Stats.Writes != 50 {
		t.Errorf("writes = %d", c.Stats.Writes)
	}
}

func TestRefreshHappens(t *testing.T) {
	c := newMC(nil, nil)
	runCycles(c, 0, c.Sys.T.REFI*3)
	if c.Stats.Refreshes < 2 {
		t.Errorf("refreshes = %d over 3 tREFI", c.Stats.Refreshes)
	}
}

// throttleDefense denies the first ACT to observe retry handling.
type throttleDefense struct {
	denied bool
	acts   int
}

func (d *throttleDefense) Name() string { return "test" }
func (d *throttleDefense) CanActivate(bank, row int, cycle uint64) (bool, uint64) {
	if !d.denied {
		d.denied = true
		return false, cycle + 500
	}
	return true, 0
}
func (d *throttleDefense) OnActivate(bank, row int, cycle uint64) []mitigation.Directive {
	d.acts++
	return nil
}

func TestDefenseThrottleDelaysActivation(t *testing.T) {
	def := &throttleDefense{}
	c := newMC(def, nil)
	doneAt := uint64(0)
	c.EnqueueRead(&Request{Addr: 0, Done: func(cyc uint64) { doneAt = cyc }}, 0)
	runCycles(c, 0, 3000)
	if doneAt == 0 {
		t.Fatal("throttled read never completed")
	}
	if doneAt < 500 {
		t.Errorf("read completed at %d despite 500-cycle throttle", doneAt)
	}
	if c.Stats.ThrottleStalls == 0 {
		t.Error("throttle not recorded")
	}
	if def.acts != 1 {
		t.Errorf("OnActivate calls = %d", def.acts)
	}
}

// refreshDefense asks for a victim refresh on every ACT.
type refreshDefense struct{ rows int }

func (d *refreshDefense) Name() string                                { return "test" }
func (d *refreshDefense) CanActivate(int, int, uint64) (bool, uint64) { return true, 0 }
func (d *refreshDefense) OnActivate(bank, row int, cycle uint64) []mitigation.Directive {
	return []mitigation.Directive{{Kind: mitigation.RefreshVictim, Bank: bank, Row: row + 1}}
}

type recTracker struct {
	acts, pres int
	restored   map[[2]int]bool
}

func (r *recTracker) OnAct(bank, row int, cycle uint64) {
	r.acts++
	if r.restored == nil {
		r.restored = map[[2]int]bool{}
	}
	r.restored[[2]int{bank, row}] = true
}
func (r *recTracker) OnPre(bank, row int, on uint64) { r.pres++ }
func (r *recTracker) OnRefresh(int, int, int)        {}
func (r *recTracker) OnRowsSwapped(int, int, int)    {}

func TestVictimRefreshExecutes(t *testing.T) {
	tr := &recTracker{}
	c := newMC(&refreshDefense{}, tr)
	c.EnqueueRead(&Request{Addr: 0}, 0)
	runCycles(c, 0, 5000)
	if c.Stats.VictimRefreshes != 1 {
		t.Fatalf("victim refreshes = %d", c.Stats.VictimRefreshes)
	}
	_, row := c.Decode(0)
	if !tr.restored[[2]int{0, row + 1}] {
		t.Error("victim row was not restored through the tracker")
	}
}

// swapDefense migrates the row on its first activation.
type swapDefense struct{ done bool }

func (d *swapDefense) Name() string                                { return "test" }
func (d *swapDefense) CanActivate(int, int, uint64) (bool, uint64) { return true, 0 }
func (d *swapDefense) OnActivate(bank, row int, cycle uint64) []mitigation.Directive {
	if d.done {
		return nil
	}
	d.done = true
	return []mitigation.Directive{{Kind: mitigation.SwapRows, Bank: bank, Row: row, DstRow: row + 100, BusyCycles: 2000}}
}

func TestRowSwapRemapsFutureAccesses(t *testing.T) {
	tr := &recTracker{}
	c := newMC(&swapDefense{}, tr)
	b, r := c.Decode(0)
	c.EnqueueRead(&Request{Addr: 0}, 0)
	runCycles(c, 0, 10_000)
	if c.Stats.Migrations != 1 {
		t.Fatalf("migrations = %d", c.Stats.Migrations)
	}
	// A second access to the same address must activate the new
	// physical location.
	c.EnqueueRead(&Request{Addr: 0}, 10_000)
	runCycles(c, 10_000, 10_000)
	if !tr.restored[[2]int{b, r + 100}] {
		t.Error("post-swap access did not reach the migrated physical row")
	}
}

// newMC1Rank builds a single-rank controller so refresh edges can be
// probed without the other rank's refresh interleaving.
func newMC1Rank(def mitigation.Defense) *Controller {
	cfg := DefaultConfig(4096)
	cfg.Ranks = 1
	t := mem.CyclesFrom(dram.DDR4Timing(3200), cfg.CPUGHz)
	return New(cfg, t, def, nil)
}

// TestNextEventRefreshEdges covers the refresh components of NextEvent:
// the idle controller's next event is the refresh deadline; while a
// refresh is in flight it is the earlier of tRFC's end and the next
// deadline; and an overdue refresh blocked by an open bank waits on
// that bank's precharge readiness.
func TestNextEventRefreshEdges(t *testing.T) {
	c := newMC1Rank(nil)
	refi := c.Sys.T.REFI

	// Idle, nothing queued: next event is the refresh deadline.
	if c.Tick(0) {
		t.Fatal("empty controller issued at cycle 0")
	}
	if got := c.NextEvent(0); got != refi {
		t.Fatalf("idle NextEvent = %d, want tREFI %d", got, refi)
	}

	// The refresh issues exactly at the deadline.
	if !c.Tick(refi) || c.Stats.Refreshes != 1 {
		t.Fatalf("REF did not issue at its deadline (refreshes=%d)", c.Stats.Refreshes)
	}
	// During the refresh: the next event is tRFC's end (the banks
	// unblock), which precedes the next deadline.
	if c.Tick(refi + 1) {
		t.Fatal("controller active mid-refresh")
	}
	want := refi + c.Sys.T.RFC
	if got := c.NextEvent(refi + 1); got != want {
		t.Fatalf("mid-refresh NextEvent = %d, want RefUntil %d (next deadline %d)", got, want, 2*refi)
	}

	// Overdue refresh blocked by an open bank: the wake-up is the
	// bank's precharge readiness, not the (past) deadline.
	c2 := newMC1Rank(nil)
	actAt := 2*refi - 2 // open a row just before the deadline
	c2.Sys.ACT(0, 7, actAt)
	c2.Sys.Ranks[0].NextREF = 2 * refi // skip the first deadline for setup simplicity
	rebuildOffers(c2)
	if c2.Tick(2 * refi) {
		t.Fatal("blocked refresh issued a command")
	}
	if got, want := c2.NextEvent(2*refi), c2.Sys.PreEarliest(0); got != want {
		t.Fatalf("blocked-refresh NextEvent = %d, want PreEarliest %d", got, want)
	}
}

// TestNextEventVictimBacklog covers the preventive-refresh components:
// a victim on a free bank acts immediately; an opened victim waits for
// its tRAS-derived precharge time; entries beyond the per-tick scan cap
// contribute nothing.
func TestNextEventVictimBacklog(t *testing.T) {
	c := newMC1Rank(nil)
	c.execute(mitigation.Directive{Kind: mitigation.RefreshVictim, Bank: 2, Row: 9}, 0)
	// Tick 0: the victim ACT issues (bank free).
	if !c.Tick(0) || c.Stats.Acts != 1 {
		t.Fatalf("victim ACT did not issue (acts=%d)", c.Stats.Acts)
	}
	// Opened: the completing PRE waits out tRAS.
	if c.Tick(1) {
		t.Fatal("controller active while victim row restores")
	}
	if got, want := c.NextEvent(1), c.Sys.T.RAS; got != want {
		t.Fatalf("opened-victim NextEvent = %d, want preAt %d", got, want)
	}
	if !c.Tick(c.Sys.T.RAS) || c.Stats.VictimRefreshes != 1 {
		t.Fatalf("victim PRE did not complete at preAt (victims=%d)", c.Stats.VictimRefreshes)
	}

	// Backlog beyond the scan cap: fill the head of the backlog with
	// victims on a far-blocked bank; a victim past the cap on a free
	// bank must not contribute a wake-up.
	c3 := newMC1Rank(nil)
	c3.Sys.BlockBank(1, 0, 1_000_000)
	for i := 0; i < victimScanCap; i++ {
		c3.execute(mitigation.Directive{Kind: mitigation.RefreshVictim, Bank: 1, Row: 100 + i}, 0)
	}
	c3.execute(mitigation.Directive{Kind: mitigation.RefreshVictim, Bank: 3, Row: 5}, 0)
	if c3.Tick(0) {
		t.Fatal("blocked backlog issued a command")
	}
	// The beyond-cap victim's bank is actionable immediately; if it
	// leaked into NextEvent the wake-up would be cycle+1. The earliest
	// real event is the refresh deadline (the capped head entries are
	// blocked until cycle 1000000).
	if got, want := c3.NextEvent(0), c3.Sys.T.REFI; got != want {
		t.Fatalf("NextEvent = %d, want the refresh deadline %d (beyond-cap victim must not contribute)", got, want)
	}
}

// TestNextEventWriteDrainWatermark covers the write-drain edges: writes
// are considered by NextEvent regardless of the current drain mode, and
// the 3/4 watermark flips the first serviced queue.
func TestNextEventWriteDrainWatermark(t *testing.T) {
	// A read on a far-blocked bank and a write on a sooner-blocked one:
	// the wake-up must be the write's unblock time even though the
	// controller is not in write-drain mode.
	c := newMC1Rank(nil)
	b0, _ := c.Decode(0)
	b1, _ := c.Decode(4 * 64) // next MOP group: a different bank
	if b0 == b1 {
		t.Fatalf("test addresses share bank %d", b0)
	}
	c.Sys.BlockBank(b0, 0, 10_000)
	c.Sys.BlockBank(b1, 0, 5_000)
	c.EnqueueRead(&Request{Addr: 0}, 0)
	c.EnqueueWrite(&Request{Addr: 4 * 64}, 0)
	if c.Tick(0) {
		t.Fatal("blocked queues issued a command")
	}
	if got, want := c.NextEvent(0), c.Sys.ActEarliest(b1); got != want {
		t.Fatalf("NextEvent = %d, want the write bank's ActEarliest %d", got, want)
	}

	// Watermark edge: at WriteQ*3/4 pending writes the first command
	// serves the write queue; one below, the read goes first.
	for _, tc := range []struct {
		writes    int
		wantWrite bool
	}{
		{DefaultConfig(4096).WriteQ*3/4 - 1, false},
		{DefaultConfig(4096).WriteQ * 3 / 4, true},
	} {
		c := newMC1Rank(nil)
		c.EnqueueRead(&Request{Addr: 0}, 0)
		for i := 0; i < tc.writes; i++ {
			if !c.EnqueueWrite(&Request{Addr: 4*64 + uint64(i)<<20}, 0) {
				t.Fatalf("write %d rejected", i)
			}
		}
		if !c.Tick(0) {
			t.Fatal("nothing issued with free banks")
		}
		readBank, _ := c.Decode(0)
		writeBank, _ := c.Decode(4 * 64)
		openedWrite := c.Sys.Banks[writeBank].OpenRow >= 0
		openedRead := c.Sys.Banks[readBank].OpenRow >= 0
		if openedWrite != tc.wantWrite || openedRead == tc.wantWrite {
			t.Errorf("writes=%d: first ACT went to write=%v read=%v, want write-first=%v",
				tc.writes, openedWrite, openedRead, tc.wantWrite)
		}
	}
}

func TestExtraMemGeneratesTraffic(t *testing.T) {
	c := newMC(nil, nil)
	c.execute(mitigation.Directive{Kind: mitigation.ExtraMem, Bank: 0, Row: 5, MemReads: 2, MemWrites: 1}, 0)
	if c.Stats.MetaReads != 2 || c.Stats.MetaWr != 1 {
		t.Errorf("meta traffic: %d/%d", c.Stats.MetaReads, c.Stats.MetaWr)
	}
	runCycles(c, 0, 30_000)
	if !c.Idle() {
		t.Error("metadata traffic never drained")
	}
}

// nextEventByRequest is the reference for NextEvent: the demand bound
// taken request by request, with the open-row suppression looked up by a
// second walk of the queue — no index, no retry horizon, no per-class
// minima. NextEvent must equal it in every controller state.
func nextEventByRequest(c *Controller, cycle uint64) uint64 {
	floor := cycle + 1
	next := c.maintenanceEvent(floor)
	for _, q := range [2][]Request{c.readQ, c.writeQ} {
		for i := range q {
			r := &q[i]
			bank := int(r.bank)
			b := &c.Sys.Banks[bank]
			var at uint64
			switch {
			case b.OpenRow == int(r.phys) && b.HitStreak < c.Cfg.ColumnCap:
				at = max(c.Sys.ColumnEarliest(bank, r.Write), r.retryAt)
			case b.OpenRow == int(r.phys):
				at = max(c.Sys.PreEarliest(bank), r.retryAt)
			case b.OpenRow >= 0:
				at = max(c.Sys.PreEarliest(bank), r.retryAt, floor)
				// A hit of the same queue keeps the row open from its
				// retry time on.
				suppressed := false
				for j := range q {
					if q[j].bank == r.bank && int(q[j].phys) == b.OpenRow && at >= q[j].retryAt {
						suppressed = true
					}
				}
				if suppressed {
					continue
				}
			default:
				at = max(c.Sys.ActEarliest(bank), r.retryAt)
			}
			next = min(next, at)
		}
	}
	return max(next, floor)
}

// checkBankIndex recounts the per-bank index from the queues.
func checkBankIndex(t testing.TB, c *Controller) {
	t.Helper()
	banks := c.Sys.TotalBanks()
	if len(c.banks) != banks || len(c.pending) != (banks+63)/64 {
		t.Fatalf("index sized %d banks, %d pending words for %d banks", len(c.banks), len(c.pending), banks)
	}
	want := make([]bankQueued, banks)
	for dir, q := range [2][]Request{c.readQ, c.writeQ} {
		for i := range q {
			r := &q[i]
			want[r.bank].req[dir]++
			if c.Sys.Banks[r.bank].OpenRow == int(r.phys) {
				want[r.bank].hit[dir]++
			}
			if r.retryAt > c.banks[r.bank].retryUntil {
				t.Fatalf("bank %d: a queued request is stamped %d, past retryUntil %d",
					r.bank, r.retryAt, c.banks[r.bank].retryUntil)
			}
		}
	}
	for b := range want {
		if got := c.banks[b]; got.req != want[b].req || got.hit != want[b].hit {
			t.Fatalf("bank %d: index %+v, queues hold %+v", b, got, want[b])
		}
		if got, want := c.pending[b>>6]>>(b&63)&1 != 0, want[b] != (bankQueued{}); got != want {
			t.Fatalf("bank %d: pending bit %v, index %+v", b, got, c.banks[b])
		}
	}
}

// checkOffers re-derives from scratch what reoffer and the term
// refreshes maintain incrementally: every device-wide term from
// mem.System, and every pending bank's offer to each queue — its kind
// from a walk of the queue, its bank-local time from the bank's ready
// fields, and the sum of the two parts from mem.System's *Earliest bound
// for the command.
func checkOffers(t testing.TB, c *Controller) {
	t.Helper()
	if len(c.terms) != termACT+c.Cfg.Ranks*c.Cfg.BankGroups || len(c.ready) != len(c.banks) {
		t.Fatalf("%d terms, %d ready slots for %d ranks x %d groups, %d banks",
			len(c.terms), len(c.ready), c.Cfg.Ranks, c.Cfg.BankGroups, len(c.banks))
	}
	if c.terms[termNone] != 0 {
		t.Fatalf("terms[termNone] = %d", c.terms[termNone])
	}
	for dir, lat := range [2]uint64{c.Sys.T.CL, c.Sys.T.CWL} {
		want := uint64(0)
		if free := c.Sys.Chan.DataFree; free > lat {
			want = free - lat
		}
		if got := c.terms[termBus+dir]; got != want {
			t.Fatalf("bus term %d = %d, DataFree %d less latency %d = %d", dir, got, c.Sys.Chan.DataFree, lat, want)
		}
	}
	for rank := 0; rank < c.Cfg.Ranks; rank++ {
		for g := 0; g < c.Cfg.BankGroups; g++ {
			if got, want := c.terms[termACT+rank*c.Cfg.BankGroups+g], c.Sys.RankActEarliest(rank, g); got != want {
				t.Fatalf("ACT term of rank %d group %d = %d, RankActEarliest = %d", rank, g, got, want)
			}
		}
	}
	for bank := range c.banks {
		if c.pending[bank>>6]>>(bank&63)&1 == 0 {
			continue
		}
		b := &c.Sys.Banks[bank]
		for dir, q := range [2][]Request{c.readQ, c.writeQ} {
			any, hit := false, false
			for i := range q {
				if int(q[i].bank) == bank {
					any = true
					hit = hit || int(q[i].phys) == b.OpenRow
				}
			}
			want := offer{at: never}
			ready := never
			switch {
			case !any:
			case b.OpenRow < 0:
				want = offer{kind: offerACT, at: b.ActReady,
					term: int32(termACT + c.Sys.RankOf(bank)*c.Cfg.BankGroups + c.Sys.GroupOf(bank))}
				ready = c.Sys.ActEarliest(bank)
			case !hit:
				want = offer{kind: offerConflictPRE, at: b.PreReady}
				ready = c.Sys.PreEarliest(bank)
			case b.HitStreak >= c.Cfg.ColumnCap:
				want = offer{kind: offerCapPRE, at: b.PreReady}
				ready = c.Sys.PreEarliest(bank)
			default:
				want = offer{kind: offerColumn, at: b.ColReady, term: int32(termBus + dir)}
				ready = c.Sys.ColumnEarliest(bank, dir == 1)
			}
			if got := c.banks[bank].offer[dir]; got != want || c.readyAt(got) != ready {
				t.Fatalf("bank %d queue %d: offer %+v ready at %d, from scratch %+v ready at %d (bank %+v)",
					bank, dir, got, c.readyAt(got), want, ready, *b)
			}
		}
	}
}

// rebuildOffers brings the index back in line after a test set device or
// queue state by hand (c.Sys.ACT, BlockBank, Chan.DataFree, ...) instead
// of through the controller's own commands.
func rebuildOffers(c *Controller) {
	c.terms[termBus] = c.Sys.BusEarliest(false)
	c.terms[termBus+1] = c.Sys.BusEarliest(true)
	for rank := range c.Sys.Ranks {
		c.rankTerms(rank)
	}
	for bank := range c.banks {
		c.recountHits(bank)
		c.reoffer(bank)
	}
}

// pickByScan is the reference for pick: the FR-FCFS scan as the
// controller ran it before it kept per-bank offers — one pass over the
// queue in arrival order that asks mem.System's Can* predicates about
// every entry (here without the per-tick memos that made that
// affordable), remembers the first candidate of each class, and settles
// the open-row policy afterwards from the hits it saw. Both of its
// loops are kept: the short one for a queue with no row hit at all,
// which stops at the first ACT candidate, and the general one.
func pickByScan(c *Controller, dir int, cycle uint64) (offerKind, int) {
	q := c.queue(dir)
	writes := dir == 1
	hits := 0
	for i := range q {
		if c.Sys.Banks[q[i].bank].OpenRow == int(q[i].phys) {
			hits++
		}
	}
	if hits == 0 {
		conf := -1
		for i := range q {
			r := &q[i]
			if cycle < r.retryAt {
				continue
			}
			bank := int(r.bank)
			if c.Sys.Banks[bank].OpenRow >= 0 {
				if conf < 0 && c.Sys.CanPRE(bank, cycle) {
					conf = i
				}
				continue
			}
			if c.Sys.CanACT(bank, cycle) {
				return offerACT, i
			}
		}
		if conf >= 0 {
			return offerConflictPRE, conf
		}
		return offerNone, -1
	}
	colCand, actCand, capCand := -1, -1, -1
	var confs []int
	eligibleHit := map[int32]bool{} // banks with a hit whose stamp has passed
	for i := range q {
		r := &q[i]
		if cycle < r.retryAt {
			continue
		}
		bank := int(r.bank)
		b := &c.Sys.Banks[bank]
		switch {
		case b.OpenRow == int(r.phys):
			eligibleHit[r.bank] = true
			if b.HitStreak < c.Cfg.ColumnCap {
				if c.Sys.CanColumn(bank, int(r.phys), writes, cycle) {
					colCand = i
				}
			} else if capCand < 0 && actCand < 0 && c.Sys.CanPRE(bank, cycle) {
				capCand = i
			}
		case b.OpenRow >= 0:
			if actCand < 0 && c.Sys.CanPRE(bank, cycle) {
				confs = append(confs, i)
			}
		default:
			if actCand < 0 && c.Sys.CanACT(bank, cycle) {
				actCand = i
			}
		}
		if colCand >= 0 {
			return offerColumn, colCand
		}
	}
	if actCand >= 0 {
		return offerACT, actCand
	}
	for _, i := range confs {
		if !eligibleHit[q[i].bank] {
			return offerConflictPRE, i
		}
	}
	if capCand >= 0 {
		return offerCapPRE, capCand
	}
	return offerNone, -1
}

// checkPick holds pick to pickByScan for both queues at cycle. The PRE
// kinds act on a bank, so two picks that name different requests of the
// same bank would be the same command; the comparison is exact anyway.
func checkPick(t testing.TB, c *Controller, cycle uint64, when string) {
	t.Helper()
	for dir := 0; dir < 2; dir++ {
		if len(c.queue(dir)) == 0 {
			continue
		}
		kind, i := c.pick(dir, cycle)
		if wk, wi := pickByScan(c, dir, cycle); kind != wk || i != wi {
			t.Fatalf("%s, cycle %d, queue %d: pick = kind %d entry %d, by scan = kind %d entry %d",
				when, cycle, dir, kind, i, wk, wi)
		}
	}
}

// fuzzDefense exercises every defense hook at random: it throttles ACTs
// with retry times from "already passed" to thousands of cycles out, and
// answers activations with victim refreshes, row swaps and metadata
// traffic.
type fuzzDefense struct {
	rng  *rand.Rand
	rows int
}

func (d *fuzzDefense) Name() string { return "fuzz" }

func (d *fuzzDefense) CanActivate(bank, row int, cycle uint64) (bool, uint64) {
	switch d.rng.Intn(12) {
	case 0:
		return false, cycle // clamped to cycle+1 by the controller
	case 1:
		return false, cycle + 1 + uint64(d.rng.Intn(3))
	case 2:
		return false, cycle + 10 + uint64(d.rng.Intn(80))
	case 3:
		return false, cycle + 500 + uint64(d.rng.Intn(3000))
	}
	return true, 0
}

func (d *fuzzDefense) OnActivate(bank, row int, cycle uint64) []mitigation.Directive {
	switch d.rng.Intn(10) {
	case 0, 1:
		return []mitigation.Directive{{Kind: mitigation.RefreshVictim, Bank: bank, Row: (row + 1) % d.rows}}
	case 2:
		// Swap with a row the traffic also targets, so queued requests
		// change class under the repair.
		return []mitigation.Directive{{Kind: mitigation.SwapRows, Bank: bank, Row: row,
			DstRow: (row + 1 + d.rng.Intn(3)) % d.rows, BusyCycles: 50 + uint64(d.rng.Intn(400))}}
	case 3:
		return []mitigation.Directive{{Kind: mitigation.ExtraMem, Bank: bank, Row: row, MemReads: 1, MemWrites: 1}}
	}
	return nil
}

// driveNextEvent runs a seeded random workload — reads and writes over a
// few banks and rows (hits, conflicts, cap rotations and closed banks
// all occur), in bursts and lulls so the queues fill and drain, under
// fuzzDefense and a short refresh interval — and after every Tick
// requires NextEvent to equal nextEventByRequest and the bank index to
// equal a recount. Around every Tick — before it, with the step's
// enqueues in, and after it — pick must equal pickByScan for both queues
// and the offers and terms a from-scratch derivation; and a dormant
// controller's cached bound must not lie past the reference's. The clock
// advances like the engine's: cycle by cycle or straight to the
// controller's own wake-up bound. cov, when not nil, counts what the
// picks before each Tick reached: per kind, and how many were made with a
// retry stamp live on some pending bank. The protocol checker watches the
// whole run: every command the controller issues must be legal by rules
// that know nothing of it or of mem.System.
func driveNextEvent(t testing.TB, c *Controller, seed uint64, steps int, cov *pickCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	const rows = 4
	tm := c.Sys.T
	tm.REFI, tm.REFW = 4000, 4000*64
	c.Reset(c.Cfg, tm, &fuzzDefense{rng: rng, rows: rows}, nil)
	chk := protocheck.Attach(c.Sys)

	// Five banks spread over the geometry, the last one included so the
	// top pending word and bit are exercised.
	total := c.Sys.TotalBanks()
	banks := []int{0, 1, total / 2, total - 2, total - 1}

	cycle := uint64(0)
	rate := 0
	for step := 0; step < steps; step++ {
		if step%64 == 0 {
			rate = rng.Intn(4) // 0 = lull: the queues drain and banks empty
		}
		for n := rng.Intn(rate + 1); n > 0; n-- {
			// Skewed toward row 0 so one row collects enough hits to reach
			// the column cap while conflicts wait behind it.
			row := 0
			if rng.Intn(3) == 0 {
				row = rng.Intn(rows)
			}
			bank := banks[rng.Intn(len(banks))]
			a := c.encode(bank, row, rng.Intn(c.blocksPerRow))
			if b, r := c.Decode(a); b != bank || r != row {
				t.Fatalf("encode(%d, %d) decodes to %d/%d", bank, row, b, r)
			}
			if rng.Intn(3) == 0 {
				c.Write(a, 0, cycle)
			} else {
				c.Read(a, 0, nil, cycle)
			}
		}
		checkBankIndex(t, c)
		checkOffers(t, c)
		checkPick(t, c, cycle, "before Tick")
		if cycle > 0 && cycle < c.idleUntil {
			if ref := nextEventByRequest(c, cycle-1); c.idleUntil > ref {
				t.Fatalf("seed %d step %d cycle %d: dormant until %d, but the queues can act at %d",
					seed, step, cycle, c.idleUntil, ref)
			}
		}
		if cov != nil {
			cov.note(c, cycle)
		}
		c.Tick(cycle)
		checkBankIndex(t, c)
		checkOffers(t, c)
		checkPick(t, c, cycle, "after Tick")
		// Tick leaves its own evaluation in idleUntil; drop it so this one
		// is made in full, then put it back.
		idleUntil := c.idleUntil
		c.idleUntil = 0
		got := c.NextEvent(cycle)
		c.idleUntil = idleUntil
		if want := nextEventByRequest(c, cycle); got != want {
			t.Fatalf("seed %d step %d cycle %d: NextEvent = %d, by request = %d (queues %d/%d)",
				seed, step, cycle, got, want, len(c.readQ), len(c.writeQ))
		}
		if c.idleUntil > cycle+1 && rng.Intn(2) == 0 {
			cycle = min(c.idleUntil, cycle+1+uint64(rng.Intn(300)))
		} else {
			cycle++
		}
	}
	// The stream the controller issued is legal DRAM protocol, by the rules
	// as protocheck states them, and the checker saw all of it.
	if err := chk.Err(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	act, pre, col, ref := chk.Commands()
	if st := c.Stats; act != st.Acts || pre != st.Pres || col != st.Reads+st.Writes || ref != st.Refreshes {
		t.Fatalf("seed %d: checker saw %d ACT, %d PRE, %d RD/WR, %d REF; controller issued %+v", seed, act, pre, col, ref, st)
	}
}

// pickCoverage counts the picks the driver compared, by outcome.
type pickCoverage struct {
	kinds [2][offerKinds]int // [a stamp live on a pending bank][pick's kind]
}

func (p *pickCoverage) note(c *Controller, cycle uint64) {
	live := 0
	for b := range c.banks {
		if c.pending[b>>6]>>(b&63)&1 != 0 && c.banks[b].retryUntil > cycle {
			live = 1
		}
	}
	for dir := 0; dir < 2; dir++ {
		if len(c.queue(dir)) > 0 {
			kind, _ := c.pick(dir, cycle)
			p.kinds[live][kind]++
		}
	}
}

func TestNextEventMatchesReference(t *testing.T) {
	var stats Stats
	var calls, scans uint64
	var cov pickCoverage
	for seed := uint64(1); seed <= 6; seed++ {
		c := newMC(nil, nil)
		driveNextEvent(t, c, seed, 20_000, &cov)
		stats.Add(c.Stats)
		calls += c.Obs.NextEventCalls
		scans += c.Obs.NextEventScans
	}
	// The comparison is only worth what the driver reached.
	if stats.RowHits == 0 || stats.RowMisses == 0 || stats.Writes == 0 || stats.ThrottleStalls == 0 ||
		stats.VictimRefreshes == 0 || stats.Migrations == 0 || stats.MetaReads == 0 || stats.Refreshes == 0 {
		t.Errorf("driver missed a behavior: %+v", stats)
	}
	if scans == 0 || scans == calls {
		t.Errorf("driver stayed on one side of the retry horizons: %d of %d evaluations walked a queue", scans, calls)
	}
	for live, kinds := range cov.kinds {
		for kind, n := range kinds {
			if n == 0 {
				t.Errorf("driver never compared a pick of kind %d with live stamps = %d: %v", kind, live, cov.kinds)
			}
		}
	}
}

// TestNextEventRetryEdges walks the coincidences the random driver
// rarely lands on: a hit's retry stamp, a conflict's stamp, the bank's
// precharge time and the current cycle all within a few cycles of each
// other, where the suppression comparison is strict and the floor clamp
// decides. The column is held off by the data bus so the PRE candidate
// is what separates the outcomes.
func TestNextEventRetryEdges(t *testing.T) {
	c := newMC1Rank(nil)
	c.Read(0, 0, nil, 0)     // bank 0, row 0: the hit
	c.Read(1<<20, 0, nil, 0) // bank 0, another row: the conflict
	if c.readQ[0].bank != c.readQ[1].bank || c.readQ[0].row == c.readQ[1].row {
		t.Fatalf("setup: requests at %d/%d and %d/%d", c.readQ[0].bank, c.readQ[0].row, c.readQ[1].bank, c.readQ[1].row)
	}
	bank := int(c.readQ[0].bank)
	c.Sys.ACT(bank, int(c.readQ[0].phys), 0)
	pre := c.Sys.PreEarliest(bank)
	c.Sys.Chan.DataFree = pre + 1000
	rebuildOffers(c)
	checkBankIndex(t, c)
	checkOffers(t, c)
	for hit := pre - 2; hit <= pre+2; hit++ {
		for _, conflict := range []uint64{0, pre - 1, pre, pre + 1} {
			for cycle := pre - 3; cycle <= pre+2; cycle++ {
				c.readQ[0].retryAt, c.readQ[1].retryAt = hit, conflict
				c.banks[bank].retryUntil = pre + 5000 // an upper bound is all it has to be
				c.idleUntil = 0
				if got, want := c.NextEvent(cycle), nextEventByRequest(c, cycle); got != want {
					t.Errorf("hit stamped %+d, conflict %+d, cycle %+d (relative to PreEarliest): NextEvent = %d, by request = %d",
						int64(hit-pre), int64(conflict-pre), int64(cycle-pre), got, want)
				}
			}
		}
	}
}

// TestPickRetryEdges is TestNextEventRetryEdges for the pick: one bank
// open on a row with a hit and a conflict queued, their retry stamps, the
// bank's precharge time, the column's bus-gated ready time and the current
// cycle all within a few cycles of each other. Besides pick == pickByScan
// it pins the open-row policy under stamps: a hit whose stamp has not
// passed must not hold the row open, one whose stamp has passed must.
func TestPickRetryEdges(t *testing.T) {
	c := newMC1Rank(nil)
	c.Read(0, 0, nil, 0)     // entry 0, bank 0 row 0: the hit
	c.Read(1<<20, 0, nil, 0) // entry 1, bank 0 another row: the conflict
	bank := int(c.readQ[0].bank)
	c.Sys.ACT(bank, int(c.readQ[0].phys), 0)
	pre := c.Sys.PreEarliest(bank)
	for _, col := range []uint64{pre - 2, pre, pre + 2, pre + 1000} {
		c.Sys.Chan.DataFree = col + c.Sys.T.CL
		rebuildOffers(c)
		checkOffers(t, c)
		if got := c.Sys.ColumnEarliest(bank, false); got != col {
			t.Fatalf("setup: ColumnEarliest = %d, want %d", got, col)
		}
		for hit := pre - 2; hit <= pre+2; hit++ {
			for _, conflict := range []uint64{0, pre - 1, pre, pre + 1} {
				for cycle := pre - 3; cycle <= pre+3; cycle++ {
					c.readQ[0].retryAt, c.readQ[1].retryAt = hit, conflict
					c.banks[bank].retryUntil = pre + 5000 // an upper bound is all it has to be
					kind, i := c.pick(0, cycle)
					if wk, wi := pickByScan(c, 0, cycle); kind != wk || i != wi {
						t.Errorf("column at %+d, hit stamped %+d, conflict %+d, cycle %+d (relative to PreEarliest): pick = kind %d entry %d, by scan = kind %d entry %d",
							int64(col-pre), int64(hit-pre), int64(conflict-pre), int64(cycle-pre), kind, i, wk, wi)
					}
					want, wantEntry := offerNone, -1
					switch {
					case cycle >= hit && cycle >= col:
						want, wantEntry = offerColumn, 0
					case cycle >= hit: // eligible, column not ready: the row stays open
					case cycle >= conflict && cycle >= pre:
						want, wantEntry = offerConflictPRE, 1
					}
					if kind != want || i != wantEntry {
						t.Errorf("column at %+d, hit stamped %+d, conflict %+d, cycle %+d: pick = kind %d entry %d, want kind %d entry %d",
							int64(col-pre), int64(hit-pre), int64(conflict-pre), int64(cycle-pre), kind, i, want, wantEntry)
					}
				}
			}
		}
	}
}

// TestPickColumnCap: a bank at the column cap is rotated out by the PRE
// its hits earn, which ranks below every conflict PRE — with a conflict
// queued on the same bank too (the eligible hit still shields the row
// from that class), and not at all once the hit's stamp is live (then
// the conflict closes the row, as on any bank).
func TestPickColumnCap(t *testing.T) {
	c := newMC1Rank(nil)
	c.Read(0, 0, nil, 0)    // entry 0: bank 0 row 0, the capped hit
	c.Read(4*64, 0, nil, 0) // entry 1: another bank, a plain conflict once opened
	capped, other := int(c.readQ[0].bank), int(c.readQ[1].bank)
	if capped == other {
		t.Fatalf("setup: both requests on bank %d", capped)
	}
	c.Sys.ACT(capped, int(c.readQ[0].phys), 0)
	c.Sys.Banks[capped].HitStreak = c.Cfg.ColumnCap
	c.Sys.ACT(other, int(c.readQ[1].phys)+1, 100)
	rebuildOffers(c)
	checkOffers(t, c)
	cycle := max(c.Sys.PreEarliest(capped), c.Sys.PreEarliest(other))
	expect := func(when string, want offerKind, wantEntry int) {
		t.Helper()
		checkPick(t, c, cycle, when)
		if kind, i := c.pick(0, cycle); kind != want || i != wantEntry {
			t.Errorf("%s: pick = kind %d entry %d, want kind %d entry %d", when, kind, i, want, wantEntry)
		}
	}
	expect("capped bank behind another bank's conflict", offerConflictPRE, 1)
	c.Sys.PRE(other, cycle)
	c.Sys.ACT(other, int(c.readQ[1].phys), cycle) // entry 1 now hits, but its column is tRCD away
	rebuildOffers(c)
	expect("capped bank, no conflicts", offerCapPRE, 0)
	c.Read(1<<20, 0, nil, cycle) // entry 2: a conflict on the capped bank itself
	checkOffers(t, c)
	expect("capped bank with its own conflict", offerCapPRE, 0)
	c.readQ[0].retryAt = cycle + 1
	c.banks[capped].retryUntil = cycle + 1
	expect("capped bank, hit stamped, own conflict", offerConflictPRE, 2)
}

// denyOnce throttles the first ACT it is asked about.
type denyOnce struct{ denied int }

func (d *denyOnce) Name() string { return "test" }
func (d *denyOnce) CanActivate(bank, row int, cycle uint64) (bool, uint64) {
	if d.denied == 0 {
		d.denied++
		return false, cycle + 500
	}
	return true, 0
}
func (d *denyOnce) OnActivate(int, int, uint64) []mitigation.Directive { return nil }

// TestDeniedACTThenReadPass: in write-drain mode the write pass goes
// first; when the defense throttles its ACT no command has issued, so the
// read pass of the same tick runs over the same device state and issues
// the read's ACT — and the throttled write is stamped, its bank live.
func TestDeniedACTThenReadPass(t *testing.T) {
	c := newMC1Rank(&denyOnce{})
	for i := 0; i < c.Cfg.WriteQ*3/4; i++ {
		c.Write(4*64+uint64(i)<<20, 0, 0) // one bank, distinct rows
	}
	c.Read(0, 0, nil, 0)
	writeBank, readBank := int(c.writeQ[0].bank), int(c.readQ[0].bank)
	if writeBank == readBank {
		t.Fatalf("setup: reads and writes share bank %d", readBank)
	}
	checkPick(t, c, 0, "before Tick")
	if !c.Tick(0) {
		t.Fatal("nothing issued")
	}
	if !c.writeMode || c.Stats.ThrottleStalls != 1 || c.Stats.Acts != 1 {
		t.Fatalf("write mode %v, %d throttles, %d ACTs; want the write's ACT throttled and one ACT issued",
			c.writeMode, c.Stats.ThrottleStalls, c.Stats.Acts)
	}
	if c.Sys.Banks[readBank].OpenRow < 0 || c.Sys.Banks[writeBank].OpenRow >= 0 {
		t.Errorf("the ACT went to the write's bank, not the read's")
	}
	if c.writeQ[0].retryAt != 500 || c.banks[writeBank].retryUntil != 500 {
		t.Errorf("throttled write stamped %d, its bank live until %d; want 500", c.writeQ[0].retryAt, c.banks[writeBank].retryUntil)
	}
	checkBankIndex(t, c)
	checkOffers(t, c)
	checkPick(t, c, 0, "after Tick")
	// The stamped write is skipped; the next oldest write of the bank
	// takes the ACT as soon as the rank allows one.
	if kind, i := c.pick(1, c.Sys.ActEarliest(writeBank)); kind != offerACT || i != 1 {
		t.Errorf("write pass after the throttle: pick = kind %d entry %d, want the ACT of entry 1", kind, i)
	}
}

// TestResetClearsBankIndex is the truncated-run pooled path: Reset of a
// controller whose queues are still full leaves a zero index, across a
// geometry change in either direction too, and the reused controller
// keeps the index exact.
func TestResetClearsBankIndex(t *testing.T) {
	c := newMC(nil, nil)
	tm := c.Sys.T
	dirty := func() {
		for i := 0; i < 200; i++ {
			c.Read(uint64(i)*64*4, 0, nil, 0)
			c.Write(uint64(i)*64*4, 0, 0)
		}
		c.tryACT(&c.readQ[0], 0) // throttled: stamps a retry
		if rd, wr := c.QueueLens(); rd == 0 || wr == 0 || c.banks[c.readQ[0].bank].retryUntil == 0 {
			t.Fatalf("setup left nothing to clear: queues %d/%d, index %+v", rd, wr, c.banks[c.readQ[0].bank])
		}
	}
	for _, ranks := range []int{2, 8, 1} { // same, grown past one pending word, shrunk
		c.Def = &throttleDefense{}
		dirty()
		cfg := DefaultConfig(4096)
		cfg.Ranks = ranks
		c.Reset(cfg, tm, nil, nil)
		checkBankIndex(t, c)
		checkOffers(t, c)
		for b, bq := range c.banks {
			if bq != (bankQueued{}) {
				t.Fatalf("ranks=%d: bank %d index = %+v after Reset", ranks, b, bq)
			}
		}
		for i, term := range c.terms {
			if term != 0 {
				t.Fatalf("ranks=%d: term %d = %d after Reset", ranks, i, term)
			}
		}
		driveNextEvent(t, c, uint64(ranks), 3000, nil)
	}
}

// FuzzNextEventByBank hands the differential driver to the fuzzer.
func FuzzNextEventByBank(f *testing.F) {
	f.Add(uint64(1), uint16(2000))
	f.Add(uint64(0xdecaf), uint16(500))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		driveNextEvent(t, newMC(nil, nil), seed, int(steps), nil)
	})
}
