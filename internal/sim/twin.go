package sim

import (
	"slices"
	"strings"
	"sync"

	"svard/internal/memctrl"
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
// Eligible cells are static (Temporal == nil) and on the event engine
// (NoSkip stays a pure reference). A twin still being recorded, evicted,
// too long to keep or never run in this process leaves its cells to
// simulate in full: the replay never waits for a twin and never runs
// one. TestTwinReplay* and FuzzTwinReplay hold replay to the full
// simulation bit for bit.

// twinBudget bounds the bytes of command log the process-wide memo
// holds; the least recently used twin goes first. It is sized from
// measured logs (EXPERIMENTS.md, "Twin replay"). A twin of the
// benchmark's Fig. 12 shape (2 cores, 20K+4K instructions) logs 80–175
// KB, so the ten twins a benchmark process records over its five set-up
// seeds take ~1.3 MB. A twin of svard-sweep's default shape (8 cores,
// 150K+30K instructions) logs 5.2–9.5 MB, more than its share, so that
// sweep simulates every cell as it would without a memo. Holding those
// twins is a trade the budget declines: at 64 MiB the memo kept 9 of the
// 12 and saved 15–28 % of the sweep's CPU, but its peak RSS went from
// 52–54 MB to 212 MB.
const twinBudget = 4 << 20

// twinShare caps one twin's log at 1/twinShare of the budget: the memo
// always has room for that many twins, and a twin too long to keep is
// dropped once it outgrows its share, so recording it costs at most that
// much memory.
const twinShare = 8

// twinOverhead is what a held twin is charged beyond its log: its
// Config, Result and bookkeeping.
const twinOverhead = 512

// twins is the process-wide memo every Run* entry point reads and feeds,
// beside the module cache.
var twins twinMemo

// twinMemo holds the command logs of recently run defense-free twins.
// Safe for concurrent use.
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

// twin is one held defense-free run. log is nil while it is being
// recorded; once set, log and res are never written again.
type twin struct {
	cfg  Config // the twin's own config (Mix owned)
	log  []twinEvent
	res  Result
	used uint64
}

// twinEvent is one command of a twin's log packed into 8 bytes, low bits
// first: kind (2), channel (4), bank (6), row (20), at (32).
//
//	ACT: channel-local bank, physical row, cycle
//	PRE: channel-local bank, physical row, cycles the row was open
//	REF: channel-local rank, first row restored, rows restored
//
// A twin with a command that does not fit is not kept (its cells
// simulate in full); the presets and the paper's scale fit with room.
type twinEvent uint64

// twinEvent kinds.
const (
	evACT = iota
	evPRE
	evREF
)

// Field widths of a twinEvent.
const (
	evChanBits = 4
	evBankBits = 6
	evRowBits  = 20
	evAtBits   = 32
)

// packEvent packs one command; ok is false if a field does not fit.
func packEvent(kind, ch, bank, row int, at uint64) (e twinEvent, ok bool) {
	if uint(ch) >= 1<<evChanBits || uint(bank) >= 1<<evBankBits || uint(row) >= 1<<evRowBits || at >= 1<<evAtBits {
		return 0, false
	}
	return twinEvent(uint64(kind) | uint64(ch)<<2 | uint64(bank)<<(2+evChanBits) |
		uint64(row)<<(2+evChanBits+evBankBits) | at<<(64-evAtBits)), true
}

func (e twinEvent) kind() int  { return int(e & 3) }
func (e twinEvent) ch() int    { return int(e>>2) & (1<<evChanBits - 1) }
func (e twinEvent) bank() int  { return int(e>>(2+evChanBits)) & (1<<evBankBits - 1) }
func (e twinEvent) row() int   { return int(e>>(2+evChanBits+evBankBits)) & (1<<evRowBits - 1) }
func (e twinEvent) at() uint64 { return uint64(e) >> (64 - evAtBits) }

// isNone reports whether defense names the defense-free baseline.
func isNone(defense string) bool { return defense == "" || strings.EqualFold(defense, "none") }

// sameTwin reports whether held twin t is the twin of cfg: every field
// but Defense, Svard and NRH equal (TestTwinKeyCoversConfig holds the
// list to Config's fields). It allocates nothing.
func sameTwin(t, cfg *Config) bool {
	return t.CPUGHz == cfg.CPUGHz && t.Cores == cfg.Cores && t.Core == cfg.Core &&
		t.Backend == cfg.Backend && t.ModuleLabel == cfg.ModuleLabel &&
		t.RowsPerBank == cfg.RowsPerBank && t.CellsPerRow == cfg.CellsPerRow &&
		slices.Equal(t.Mix, cfg.Mix) && t.InstrPerCore == cfg.InstrPerCore &&
		t.WarmupPerCore == cfg.WarmupPerCore && t.MaxCycles == cfg.MaxCycles &&
		t.Seed == cfg.Seed && t.WindowScale == cfg.WindowScale &&
		t.NoSkip == cfg.NoSkip && t.Temporal == nil && cfg.Temporal == nil
}

// replayable returns the held twin of defense cell cfg, or nil when cfg
// is not eligible or its twin is not held (in flight counts as not).
func (mm *twinMemo) replayable(cfg *Config) *twin {
	if mm == nil || cfg.Temporal != nil || cfg.NoSkip || isNone(cfg.Defense) {
		return nil
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, t := range mm.held {
		if t.log != nil && sameTwin(&t.cfg, cfg) {
			mm.clock++
			t.used = mm.clock
			return t
		}
	}
	return nil
}

// replay drives the armed defenses and tracker of arena st through tw's
// log. It reports false at the first answer Nop would not give — the
// armed half is then dirty and must be re-armed.
func (l *layout) replay(st *poolState, tw *twin) bool {
	tr, defs := st.tracker, st.defs
	for _, e := range tw.log {
		ch, bank, row, at := e.ch(), e.bank(), e.row(), e.at()
		switch e.kind() {
		case evACT:
			d := defs[ch]
			if ok, _ := d.CanActivate(bank, row, at); !ok {
				return false
			}
			tr.OnAct(ch*l.banksPerChan+bank, row, at)
			if len(d.OnActivate(bank, row, at)) != 0 {
				return false
			}
		case evPRE:
			tr.OnPre(ch*l.banksPerChan+bank, row, at)
		case evREF:
			tr.OnRefresh(ch*l.mcCfg.Ranks+bank, row, int(at))
		}
	}
	return true
}

// result is the twin's Result as the replayed cell's: its own copy of the
// IPC slice, and the cell's own Violations.
func (tw *twin) result(violations uint64) Result {
	res := tw.res
	res.IPC = slices.Clone(tw.res.IPC)
	res.Violations = violations
	return res
}

// twinTape is a twin being recorded: the log its controllers' taps
// append to, and the memo slot it will fill.
type twinTape struct {
	tw  *twin
	log []twinEvent
	max int  // the longest log the memo keeps: 1/twinShare of its budget
	ok  bool // false once the log cannot be used (too long, out of range)
}

// record starts recording m's command log if cfg is an eligible twin the
// memo neither holds nor is already recording; nil otherwise.
func (mm *twinMemo) record(cfg *Config, m *machine) *twinTape {
	if mm == nil || cfg.Temporal != nil || cfg.NoSkip || !isNone(cfg.Defense) {
		return nil
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, t := range mm.held {
		if sameTwin(&t.cfg, cfg) {
			return nil
		}
	}
	tw := &twin{cfg: *cfg}
	tw.cfg.Mix = slices.Clone(cfg.Mix)
	mm.held = append(mm.held, tw)
	tape := &twinTape{tw: tw, max: (mm.limit()/twinShare - twinOverhead) / 8, ok: true}
	for ch, mc := range m.mcs {
		mc.Track = &twinTap{next: mc.Track, tape: tape, ch: ch}
	}
	return tape
}

// finish stores the recorded log and res in the memo, evicting least
// recently used twins beyond the budget, or drops the slot if the log
// is unusable. A nil tape is a no-op.
func (mm *twinMemo) finish(tape *twinTape, res Result) {
	if tape == nil {
		return
	}
	var log []twinEvent
	if tape.ok {
		log = make([]twinEvent, len(tape.log)) // exact size: it is held
		copy(log, tape.log)
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	tw := tape.tw
	if !tape.ok {
		mm.drop(tw)
		return
	}
	tw.log = log
	tw.res = res
	tw.res.IPC = slices.Clone(res.IPC)
	mm.clock++
	tw.used = mm.clock
	mm.bytes += tw.size()
	for mm.bytes > mm.limit() {
		var lru *twin
		for _, t := range mm.held {
			if t.log != nil && (lru == nil || t.used < lru.used) {
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
	if t.log != nil {
		mm.bytes -= t.size()
	}
}

// size is what a held twin is charged against the budget.
func (t *twin) size() int { return len(t.log)*8 + twinOverhead }

// add logs one command, or marks the tape unusable if it does not fit.
func (tp *twinTape) add(kind, ch, bank, row int, at uint64) {
	if !tp.ok {
		return
	}
	e, ok := packEvent(kind, ch, bank, row, at)
	if !ok || len(tp.log) == tp.max {
		tp.ok, tp.log = false, nil
		return
	}
	tp.log = append(tp.log, e)
}

// twinTap is a twin controller's tracker while it is recorded: it logs
// each command and passes it on.
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

// OnRowsSwapped cannot happen without a defense directive; if it ever
// does, the log is not a defense-free trajectory and is not kept.
func (t *twinTap) OnRowsSwapped(bank, a, b int) {
	t.tape.ok, t.tape.log = false, nil
	t.next.OnRowsSwapped(bank, a, b)
}
