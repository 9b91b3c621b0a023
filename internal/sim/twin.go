package sim

import (
	"slices"
	"strings"
	"sync"

	"svard/internal/memctrl"
	"svard/internal/mitigation"
)

// Twin replay. A defense reaches the machine only through its answers to
// CanActivate and OnActivate; on a static cell the security tracker only
// observes. So a cell whose defense, at every call its defense-free
// twin's controllers made, answers what mitigation.Nop answers (ok, no
// directives) follows the twin's trajectory exactly: the same IPC,
// Cycles, MC stats and Finished. Only Violations differs, and it comes
// from the cell's own tracker at the cell's own nRH.
//
// The twin of a cell is its Config with Defense "none", Svard off and
// NRH ignored — the Fig. 12 baseline of its (module, mix, backend). When
// a twin runs and the memo lacks it, its controllers' trackers are
// tapped, and every command they report is logged. A later defense cell
// with the same twin is replayed: its armed defenses and tracker are
// driven through the log, and at the first answer Nop would not give the
// armed half is reset and the cell simulates in full. The log needs no
// defense entries: a Nop controller asks CanActivate once before every
// ACT it issues and calls OnActivate once after it, with the ACT's own
// (bank, row, cycle), and issues no other ACT (victim refreshes come
// only from directives).
//
// Sibling replay. A temporal process moves only the tracker's ground
// truth (views.go): defenses read the frozen calibration view, and the
// tracker's next epoch edge, the one bound it adds to the event engine's
// jumps, is a multiple of EpochCycles whatever the calibration age. So
// two cells whose Configs differ only in Temporal.AgeEpochs — the
// interval legs of one margin-erosion point — stop at the same cycles
// and issue the same commands, defense directives and RRS swaps
// included. The first of them to run (the recorder) simulates with its
// tracker tapped; the log also marks each change of the live epoch. A
// sibling arms only its tracker and walks the log, entering each marked
// epoch and finally the recorder's last cycle's, and returns the
// recorder's Result with its own Violations. Nothing can diverge, so
// the walk never falls back. A log never serves the Config that recorded
// it: the recorder re-simulates, as a twin does.
//
// Eligible cells are on the event engine (NoSkip stays a pure
// reference). A log still being recorded, evicted, too long to keep or
// never recorded in this process leaves its cells to simulate in full
// (twin_missed): the replay never waits for a log and never runs a cell
// it was not asked for. TestTwinReplay*, FuzzTwinReplay and
// FuzzTemporalMovesOnlyViolations hold replay to the full simulation bit
// for bit.

// twinBudget bounds the bytes of command log the process-wide memo
// holds; the least recently used log goes first. It is sized from
// measured logs (EXPERIMENTS.md, "Twin replay"). A twin of the
// benchmark's Fig. 12 shape (2 cores, 20K+4K instructions) logs 80–175
// KB, so the ten twins a benchmark process records over its five set-up
// seeds take ~1.3 MB. A stream of the benchmark's erosion shape (the
// same sizing) logs 78–330 KiB, and the 16 of one seed take 2.4 MB, so
// every sibling of a pass finds its stream. A twin of svard-sweep's
// default shape (8 cores, 150K+30K instructions) logs 5.2–9.5 MB, more
// than its share, so that sweep simulates every cell as it would without
// a memo. Holding those twins is a trade the budget declines: at 64 MiB
// the memo kept 9 of the 12 and saved 15–28 % of the sweep's CPU, but its
// peak RSS went from 52–54 MB to 212 MB.
const twinBudget = 4 << 20

// twinShare caps one log at 1/twinShare of the budget: the memo always
// has room for that many logs, and a log too long to keep is dropped
// once it outgrows its share, so recording it costs at most that much
// memory.
const twinShare = 8

// twinOverhead is what a held log is charged beyond its entries: its
// Config, Result and bookkeeping.
const twinOverhead = 512

// twins is the process-wide memo every Run* entry point reads and feeds,
// beside the module cache.
var twins twinMemo

// twinMemo holds the command logs of recently run defense-free twins and
// temporal recorders. Safe for concurrent use.
type twinMemo struct {
	mu     sync.Mutex
	held   []*twin
	bytes  int
	clock  uint64 // LRU clock: bumped on every insert and hit
	budget int    // bytes; 0 means twinBudget (tests set their own)
}

// limit is the memo's byte budget.
func (mm *twinMemo) limit() int {
	if mm.budget > 0 {
		return mm.budget
	}
	return twinBudget
}

// twin is one held run: a defense-free twin (cfg.Temporal == nil) or a
// temporal recorder. Until ready it is being recorded; once ready, log,
// n and res are never written again.
type twin struct {
	cfg   Config // the recording run's config (Mix and Temporal owned)
	log   [][]twinEvent
	n     int // entries in log
	res   Result
	used  uint64
	ready bool
}

// twinEvent is one command of a log packed into 8 bytes, low bits first:
// kind (3), channel (4), bank (6), row (19), at (32).
//
//	ACT:   channel-local bank, physical row, cycle
//	PRE:   channel-local bank, physical row, cycles the row was open
//	REF:   channel-local rank, first row restored, rows restored
//	SWAP:  channel-local bank, one row, the other row
//	EPOCH: the live epoch every later entry runs in (temporal logs only)
//
// A log with an entry that does not fit is not kept (its cells simulate
// in full); the presets and the paper's scale fit with room.
type twinEvent uint64

// twinEvent kinds.
const (
	evACT = iota
	evPRE
	evREF
	evSWAP
	evEpoch
)

// Field widths of a twinEvent.
const (
	evKindBits = 3
	evChanBits = 4
	evBankBits = 6
	evRowBits  = 19
	evAtBits   = 32
)

// twinBlock is the number of entries in one block of a log: 8 KiB. A log
// grows a block at a time and is held as recorded, never copied.
const twinBlock = 1024

// packEvent packs one entry; ok is false if a field does not fit.
func packEvent(kind, ch, bank, row int, at uint64) (e twinEvent, ok bool) {
	if uint(ch) >= 1<<evChanBits || uint(bank) >= 1<<evBankBits || uint(row) >= 1<<evRowBits || at >= 1<<evAtBits {
		return 0, false
	}
	return twinEvent(uint64(kind) | uint64(ch)<<evKindBits | uint64(bank)<<(evKindBits+evChanBits) |
		uint64(row)<<(evKindBits+evChanBits+evBankBits) | at<<(64-evAtBits)), true
}

func (e twinEvent) kind() int  { return int(e & (1<<evKindBits - 1)) }
func (e twinEvent) ch() int    { return int(e>>evKindBits) & (1<<evChanBits - 1) }
func (e twinEvent) bank() int  { return int(e>>(evKindBits+evChanBits)) & (1<<evBankBits - 1) }
func (e twinEvent) row() int   { return int(e>>(evKindBits+evChanBits+evBankBits)) & (1<<evRowBits - 1) }
func (e twinEvent) at() uint64 { return uint64(e) >> (64 - evAtBits) }

// isNone reports whether defense names the defense-free baseline.
func isNone(defense string) bool { return defense == "" || strings.EqualFold(defense, "none") }

// sameMachine reports whether a and b agree on every field but Defense,
// Svard, NRH and Temporal. It allocates nothing.
func sameMachine(a, b *Config) bool {
	return a.CPUGHz == b.CPUGHz && a.Cores == b.Cores && a.Core == b.Core &&
		a.Backend == b.Backend && a.ModuleLabel == b.ModuleLabel &&
		a.RowsPerBank == b.RowsPerBank && a.CellsPerRow == b.CellsPerRow &&
		slices.Equal(a.Mix, b.Mix) && a.InstrPerCore == b.InstrPerCore &&
		a.WarmupPerCore == b.WarmupPerCore && a.MaxCycles == b.MaxCycles &&
		a.Seed == b.Seed && a.WindowScale == b.WindowScale && a.NoSkip == b.NoSkip
}

// sameTwin reports whether held twin t is the twin of static cfg: every
// field but Defense, Svard and NRH equal (TestTwinKeyCoversConfig holds
// the list to Config's fields).
func sameTwin(t, cfg *Config) bool {
	return t.Temporal == nil && cfg.Temporal == nil && sameMachine(t, cfg)
}

// sameStream reports whether held log t and temporal cfg are siblings:
// every field but Temporal.AgeEpochs equal (TestTwinKeyCoversConfig
// again).
func sameStream(t, cfg *Config) bool {
	if t.Temporal == nil || cfg.Temporal == nil || !sameMachine(t, cfg) ||
		t.Defense != cfg.Defense || t.Svard != cfg.Svard || t.NRH != cfg.NRH {
		return false
	}
	p := *t.Temporal
	p.AgeEpochs = cfg.Temporal.AgeEpochs
	return p == *cfg.Temporal
}

// replayable returns the held log that can serve cfg: its twin's for a
// static defense cell, a sibling's for a temporal cell. eligible reports
// whether cfg may be served at all; an eligible cell with no log held
// (in flight counts as not) simulates in full.
func (mm *twinMemo) replayable(cfg *Config) (tw *twin, eligible bool) {
	if mm == nil || cfg.NoSkip || (cfg.Temporal == nil && isNone(cfg.Defense)) {
		return nil, false
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, t := range mm.held {
		if !t.ready {
			continue
		}
		if sameTwin(&t.cfg, cfg) || (sameStream(&t.cfg, cfg) && t.cfg.Temporal.AgeEpochs != cfg.Temporal.AgeEpochs) {
			mm.clock++
			t.used = mm.clock
			return t, true
		}
	}
	return nil, true
}

// replay drives arena st's armed tracker through tw's log and, for a
// twin, its armed defenses too, reporting false at their first answer Nop
// would not give — the armed half is then dirty and must be re-armed. A
// sibling's walk always completes.
func (l *layout) replay(st *poolState, tw *twin) bool {
	tr := st.tracker
	var defs []mitigation.Defense
	if tw.cfg.Temporal == nil {
		defs = st.defs
	}
	for _, block := range tw.log {
		for _, e := range block {
			ch, bank, row, at := e.ch(), e.bank(), e.row(), e.at()
			switch e.kind() {
			case evACT:
				if defs != nil {
					if ok, _ := defs[ch].CanActivate(bank, row, at); !ok {
						return false
					}
				}
				tr.OnAct(ch*l.banksPerChan+bank, row, at)
				if defs != nil && len(defs[ch].OnActivate(bank, row, at)) != 0 {
					return false
				}
			case evPRE:
				tr.OnPre(ch*l.banksPerChan+bank, row, at)
			case evREF:
				tr.OnRefresh(ch*l.mcCfg.Ranks+bank, row, int(at))
			case evSWAP:
				tr.OnRowsSwapped(ch*l.banksPerChan+bank, row, int(at))
			case evEpoch:
				tr.tickEpoch(at * tr.live.epochLen)
			}
		}
	}
	// The recorder's last tick was at its final cycle: it crossed every
	// epoch edge up to there, commands or not.
	tr.tickEpoch(tw.res.Cycles)
	return true
}

// result is the recorded Result as the replayed cell's: its own copy of
// the IPC slice, and the cell's own Violations.
func (tw *twin) result(violations uint64) Result {
	res := tw.res
	res.IPC = slices.Clone(tw.res.IPC)
	res.Violations = violations
	return res
}

// twinTape is a log being recorded: the blocks its controllers' taps
// append to, and the memo slot it will fill.
type twinTape struct {
	tw     *twin
	blocks [][]twinEvent
	n      int  // entries in blocks
	max    int  // the longest log the memo keeps: 1/twinShare of its budget
	ok     bool // false once the log cannot be used (too long, out of range)

	live  *liveView // the recorder's live view (temporal logs; nil for a twin)
	epoch uint64    // live epoch as of the last entry
}

// record starts recording m's command log if cfg is a run the memo
// keeps — a static defense-free twin or a temporal cell, on the event
// engine — and neither holds nor is already recording; nil otherwise.
func (mm *twinMemo) record(cfg *Config, m *machine) *twinTape {
	if mm == nil || cfg.NoSkip || (cfg.Temporal == nil && !isNone(cfg.Defense)) {
		return nil
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, t := range mm.held {
		if sameTwin(&t.cfg, cfg) || sameStream(&t.cfg, cfg) {
			return nil
		}
	}
	tw := &twin{cfg: *cfg}
	tw.cfg.Mix = slices.Clone(cfg.Mix)
	tape := &twinTape{tw: tw, max: (mm.limit()/twinShare - twinOverhead) / 8, ok: true}
	if cfg.Temporal != nil {
		p := *cfg.Temporal
		tw.cfg.Temporal = &p
		tape.live = &m.tracker.live
	}
	mm.held = append(mm.held, tw)
	for ch, mc := range m.mcs {
		mc.Track = &twinTap{next: mc.Track, tape: tape, ch: ch}
	}
	return tape
}

// finish hands the recorded log and res to the memo, evicting least
// recently used logs beyond the budget, or drops the slot if the log is
// unusable or a temporal recorder was truncated (its walk could not end
// where its run did). Either way the tape is emptied, so the taps left
// in the arena pin neither the log nor its slot. A nil tape is a no-op.
func (mm *twinMemo) finish(tape *twinTape, res Result) {
	if tape == nil {
		return
	}
	recorded := *tape
	*tape = twinTape{}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	tw := recorded.tw
	if !recorded.ok || tw.cfg.Temporal != nil && !res.Finished {
		mm.drop(tw)
		return
	}
	tw.log, tw.n, tw.ready = recorded.blocks, recorded.n, true
	tw.res = res
	tw.res.IPC = slices.Clone(res.IPC)
	mm.clock++
	tw.used = mm.clock
	mm.bytes += tw.size()
	for mm.bytes > mm.limit() {
		var lru *twin
		for _, t := range mm.held {
			if t.ready && (lru == nil || t.used < lru.used) {
				lru = t
			}
		}
		mm.drop(lru)
	}
}

// drop removes t from the memo. Called with mm.mu held.
func (mm *twinMemo) drop(t *twin) {
	i := slices.Index(mm.held, t)
	if i < 0 {
		return
	}
	mm.held = slices.Delete(mm.held, i, i+1)
	if t.ready {
		mm.bytes -= t.size()
	}
}

// size is what a held log is charged against the budget: its entries
// (the last block's unused tail, under 8 KiB, is not charged) and its
// overhead.
func (t *twin) size() int { return t.n*8 + twinOverhead }

// add logs one command, preceded by an EPOCH entry if the live epoch
// moved since the last one.
func (tp *twinTape) add(kind, ch, bank, row int, at uint64) {
	if tp.live != nil && tp.live.epoch != tp.epoch {
		tp.epoch = tp.live.epoch
		tp.push(evEpoch, 0, 0, 0, tp.epoch)
	}
	tp.push(kind, ch, bank, row, at)
}

// push appends one entry, or marks the tape unusable if it does not fit.
func (tp *twinTape) push(kind, ch, bank, row int, at uint64) {
	if !tp.ok {
		return
	}
	e, ok := packEvent(kind, ch, bank, row, at)
	if !ok || tp.n == tp.max {
		tp.ok, tp.blocks = false, nil
		return
	}
	if tp.n%twinBlock == 0 {
		tp.blocks = append(tp.blocks, make([]twinEvent, 0, twinBlock))
	}
	last := &tp.blocks[len(tp.blocks)-1]
	*last = append(*last, e)
	tp.n++
}

// twinTap is a recorded controller's tracker: it logs each command and
// passes it on.
type twinTap struct {
	next memctrl.Tracker
	tape *twinTape
	ch   int
}

func (t *twinTap) OnAct(bank, row int, cycle uint64) {
	t.tape.add(evACT, t.ch, bank, row, cycle)
	t.next.OnAct(bank, row, cycle)
}

func (t *twinTap) OnPre(bank, row int, on uint64) {
	t.tape.add(evPRE, t.ch, bank, row, on)
	t.next.OnPre(bank, row, on)
}

func (t *twinTap) OnRefresh(rank, firstRow, count int) {
	t.tape.add(evREF, t.ch, rank, firstRow, uint64(count))
	t.next.OnRefresh(rank, firstRow, count)
}

func (t *twinTap) OnRowsSwapped(bank, a, b int) {
	t.tape.add(evSWAP, t.ch, bank, a, uint64(b))
	t.next.OnRowsSwapped(bank, a, b)
}
