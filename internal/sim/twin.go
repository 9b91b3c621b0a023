package sim

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"svard/internal/cpu"
	"svard/internal/memctrl"
	"svard/internal/mitigation"
	"svard/internal/trace"
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
// a twin runs and the memo lacks it, its security tracker logs every
// command the controllers report to it. A later defense cell with the
// same twin is replayed: its armed defenses and tracker are driven
// through the log, and at the first answer Nop would not give the armed
// half is reset and the cell simulates in full. The log needs no defense
// entries: a Nop controller asks CanActivate once before every ACT it
// issues and calls OnActivate once after it, with the ACT's own (bank,
// row, cycle), and issues no other ACT (victim refreshes come only from
// directives).
//
// Resume from a checkpoint. A diverged cell follows its twin exactly up
// to the cycle of the ACT its defense first answered differently, so the
// twin's machine at any earlier cycle is the cell's too. While a twin
// records it saves its machine — controllers, DRAM state, cores, trace
// positions — at cycle boundaries (checkpoint), each tagged with the log
// length at that tick. A diverged cell re-arms, walks the log up to the
// last checkpoint taken before the diverging entry, restores that
// checkpoint into its own freshly assembled machine and runs the event
// engine from there. A read queued at the checkpoint names its core's
// miss register rather than a callback (memctrl.Filler), so the copied
// queue completes into the cell's own cores.
//
// Stream replay. A temporal process moves only the tracker's ground
// truth (views.go): defenses read the frozen calibration view, and the
// event engine's jumps are bounded by the controllers and the cores
// alone. So the legs of one margin-erosion point — Configs that differ
// only in Temporal, the static leg (Temporal nil) included — tick the
// same cycles and issue the same commands, defense directives and RRS
// swaps included. The first leg to simulate (the recorder) logs them
// through its tracker: a static defense cell whose defense-free twin the
// memo neither holds nor is recording, or a temporal leg that finds no
// stream. A cell that diverged from its twin does not record. Every
// other leg arms only its tracker, feeds it the log — the tracker enters
// each closing row's epoch itself, as it did in the recorder's run — and
// the recorder's last cycle, and returns the recorder's Result with its
// own Violations. A stream cannot diverge, so a cell served by both a
// stream and a twin walks the stream. A log never serves the Config that
// recorded it: the recorder re-simulates, as a twin does.
//
// Only the event engine reads or feeds the memo (the reference loop
// runs without one). A log still being recorded, evicted, too long to
// keep or never recorded in this env leaves its cells to simulate in full
// (twin_missed): the replay never waits for a log and never runs a cell
// it was not asked for. TestTwinReplay*, FuzzTwinReplay, FuzzTwinResume
// and FuzzTemporalMovesOnlyViolations hold replay and resume to the full
// simulation bit for bit.

// twinBudget bounds the bytes of command log and checkpoints an env's
// memo holds; the least recently used log goes first, with its
// checkpoints. It is sized from measured logs
// (EXPERIMENTS.md, "Twin replay"). A twin of the benchmark's Fig. 12
// shape (2 cores, 20K+4K instructions) logs 80–175 KB and checkpoints
// 113–312 KB, so the ten twins a benchmark process records over its five
// set-up seeds hold ~1.3 MB of log and ~2.0 MB of checkpoints.
// A stream of the benchmark's erosion shape (the same sizing) logs
// 78–330 KiB, and the 16 of one seed take 2.4 MB, so every other leg of
// a pass finds its stream. A twin of svard-sweep's default shape (8
// cores, 150K+30K instructions) logs 5.2–9.5 MB, more than its share, so
// that sweep simulates every cell as it would without a memo. Holding
// those twins is a trade the budget declines: at 64 MiB the memo kept 9
// of the 12 and saved 15–28 % of the sweep's CPU, but its peak RSS went
// from 52–54 MB to 212 MB.
const twinBudget = 4 << 20

// twinShare caps one log at 1/twinShare of the budget, and a twin's
// checkpoints at another: the memo always has room for half that many
// twins, and a log too long to keep is dropped once it outgrows its
// share, so recording it costs at most that much memory.
const twinShare = 8

// twinOverhead is what a held log is charged beyond its entries: its
// Config, Result and bookkeeping.
const twinOverhead = 512

// twinMemo holds the command logs of recently run defense-free twins and
// stream recorders. Safe for concurrent use.
type twinMemo struct {
	mu     sync.Mutex
	held   []*twin
	bytes  int
	clock  uint64 // LRU clock: bumped on every insert and hit
	budget int    // bytes; 0 means twinBudget (tests set their own)
	every  uint64 // checkpoint spacing in cycles; 0 means checkpointEvery (tests set their own)
}

// limit is the memo's byte budget.
func (mm *twinMemo) limit() int {
	if mm.budget > 0 {
		return mm.budget
	}
	return twinBudget
}

// twin is one held run: a defense-free twin (static, Defense "none") or
// a stream recorder. Until ready it is being recorded, by the run's
// tracker alone; once ready, log, n, res and its checkpoints are never
// written again.
type twin struct {
	cfg   Config // the recording run's config (Mix and Temporal owned)
	log   [][]twinEvent
	n     int  // entries in log
	max   int  // the longest log the memo keeps: 1/twinShare of its budget
	lost  bool // the log cannot be used (too long, an entry out of range)
	res   Result
	used  uint64
	ready bool

	// A defense-free twin's checkpoints, in cycle order: its machine at
	// boundaries every cycles apart. Their bytes never exceed ckMax, its
	// checkpoint share: the first that would is not kept, and the twin
	// takes no more.
	ckpts   []*checkpoint
	every   uint64
	ckBytes int
	ckMax   int
}

// checkpointEvery is the spacing, in cycles, at which a recording twin
// starts saving its machine. A diverged cell resumes from the last
// checkpoint before its divergence, so it re-simulates at most about this
// many cycles of the prefix it shares with its twin. On the benchmark's
// shape a checkpoint takes 18–42 KB, so a 334 000-cycle twin's ten fit
// its share (EXPERIMENTS.md, "Twin replay", has the sizing); a longer
// twin keeps its first checkpoints up to the share.
const checkpointEvery = 1 << 15

// checkpoint is a recording twin's machine between two ticks: at the top
// of the engine loop's iteration for cycle at, the first at or past a
// multiple of the twin's spacing, after the log's first n entries. It holds what a resume
// restores into a freshly assembled machine: each controller's state
// (its DRAM device array inside), each core's, and each core's position
// in its trace. The security half is not in it: a resume replays the
// log's first n entries into the cell's own armed tracker and defenses.
type checkpoint struct {
	at    uint64
	n     int
	mcs   []memctrl.State
	cores []cpu.State
	gens  []trace.Pos
	bytes int
}

// save checkpoints the machine of a recording twin at cycle and sets the
// next boundary. A machine it cannot save (memctrl.Controller.Save and
// cpu.Core.Save say when), or a checkpoint past the twin's share, ends
// its checkpoints.
func (m *machine) save(cycle uint64) {
	tw := m.tracker.log
	m.saveAt = math.MaxUint64
	if tw.lost {
		return
	}
	ck := &checkpoint{
		at: cycle, n: tw.n,
		mcs:   make([]memctrl.State, len(m.mcs)),
		cores: make([]cpu.State, len(m.cores)),
		gens:  make([]trace.Pos, len(m.cores)),
	}
	ck.bytes = int(unsafe.Sizeof(*ck)) + len(ck.gens)*int(unsafe.Sizeof(trace.Pos{}))
	for i, mc := range m.mcs {
		if !mc.Save(&ck.mcs[i]) {
			return
		}
		ck.bytes += ck.mcs[i].Bytes()
	}
	for i, c := range m.cores {
		if !c.Save(&ck.cores[i]) {
			return
		}
		ck.gens[i] = m.gens[i].Pos()
		ck.bytes += ck.cores[i].Bytes()
	}
	if tw.ckBytes+ck.bytes > tw.ckMax {
		return
	}
	tw.ckpts = append(tw.ckpts, ck)
	tw.ckBytes += ck.bytes
	if next := (cycle/tw.every + 1) * tw.every; next > cycle {
		m.saveAt = next
	}
}

// resumePoint is the last checkpoint of tw a cell that diverged at log
// entry d can resume from: the latest taken before entry d was logged,
// or nil.
func (tw *twin) resumePoint(d int) *checkpoint {
	var last *checkpoint
	for _, ck := range tw.ckpts {
		if ck.n > d {
			break
		}
		last = ck
	}
	return last
}

// restore sets a freshly assembled machine to checkpoint ck: its
// controllers and cores, each core's trace position, and the cycle
// runSkip starts at. It allocates nothing once the arena's queues are
// warm.
func (m *machine) restore(ck *checkpoint) {
	for i, mc := range m.mcs {
		mc.Restore(&ck.mcs[i])
	}
	for i, c := range m.cores {
		c.Restore(&ck.cores[i])
		m.gens[i].Seek(ck.gens[i])
	}
	m.start = ck.at
	m.obs.TwinResumed = 1
	m.obs.ResumedCycles = ck.at
}

// twinEvent is one command of a log packed into 8 bytes, low bits first:
// kind (3), bank (10), row (19), at (32). Banks and ranks are
// system-wide, as the tracker indexes them.
//
//	ACT:   bank, physical row, cycle
//	PRE:   bank, physical row, cycles the row was open
//	REF:   rank, first row restored, rows restored
//	SWAP:  bank, one row, the other row
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
)

// Field widths of a twinEvent.
const (
	evKindBits = 3
	evBankBits = 10
	evRowBits  = 19
	evAtBits   = 32
)

// twinBlock is the number of entries in one block of a log: 8 KiB. A log
// grows a block at a time and is held as recorded, never copied.
const twinBlock = 1024

// packEvent packs one entry; ok is false if a field does not fit.
func packEvent(kind, bank, row int, at uint64) (e twinEvent, ok bool) {
	if uint(bank) >= 1<<evBankBits || uint(row) >= 1<<evRowBits || at >= 1<<evAtBits {
		return 0, false
	}
	return twinEvent(uint64(kind) | uint64(bank)<<evKindBits |
		uint64(row)<<(evKindBits+evBankBits) | at<<(64-evAtBits)), true
}

func (e twinEvent) kind() int  { return int(e & (1<<evKindBits - 1)) }
func (e twinEvent) bank() int  { return int(e>>evKindBits) & (1<<evBankBits - 1) }
func (e twinEvent) row() int   { return int(e>>(evKindBits+evBankBits)) & (1<<evRowBits - 1) }
func (e twinEvent) at() uint64 { return uint64(e) >> (64 - evAtBits) }

// isNone reports whether defense names the defense-free baseline.
func isNone(defense string) bool { return defense == "" || strings.EqualFold(defense, "none") }

// sameMachine reports whether a and b agree on every field but Defense,
// Svard, NRH and Temporal. It allocates nothing.
func sameMachine(a, b *Config) bool {
	return a.CPUGHz == b.CPUGHz && a.Cores == b.Cores &&
		a.Backend == b.Backend && a.ModuleLabel == b.ModuleLabel &&
		a.RowsPerBank == b.RowsPerBank && a.CellsPerRow == b.CellsPerRow &&
		slices.Equal(a.Mix, b.Mix) && a.InstrPerCore == b.InstrPerCore &&
		a.WarmupPerCore == b.WarmupPerCore && a.MaxCycles == b.MaxCycles &&
		a.Seed == b.Seed && a.WindowScale == b.WindowScale
}

// isTwin reports whether a log recorded under cfg is a defense-free twin.
func isTwin(cfg *Config) bool { return cfg.Temporal == nil && isNone(cfg.Defense) }

// sameTwin reports whether held log t is the twin of static cfg: t
// defense-free, every field but Defense, Svard and NRH equal
// (TestTwinKeyCoversConfig holds the list to Config's fields).
func sameTwin(t, cfg *Config) bool {
	return isTwin(t) && cfg.Temporal == nil && sameMachine(t, cfg)
}

// sameStream reports whether held log t and cfg are legs of one family:
// every field but Temporal equal (TestTwinKeyCoversConfig again).
func sameStream(t, cfg *Config) bool {
	return sameMachine(t, cfg) && t.Defense == cfg.Defense && t.Svard == cfg.Svard && t.NRH == cfg.NRH
}

// sameLeg reports whether a and b run under the same temporal process,
// static included: a log never serves the leg that recorded it.
func sameLeg(a, b *Config) bool {
	return a.Temporal == b.Temporal || a.Temporal != nil && b.Temporal != nil && *a.Temporal == *b.Temporal
}

// replayable returns the held log that can serve cfg: another leg's
// stream of its family, which only a finished recorder leaves, or else
// for a static defense cell its twin's. eligible reports whether cfg may
// be served at all; an eligible cell with no log held (in flight counts
// as not) simulates in full.
func (mm *twinMemo) replayable(cfg *Config) (tw *twin, eligible bool) {
	if mm == nil || isTwin(cfg) {
		return nil, false
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var twinLog *twin
	for _, t := range mm.held {
		if !t.ready {
			continue
		}
		if sameStream(&t.cfg, cfg) && !sameLeg(&t.cfg, cfg) && t.res.Finished {
			tw = t
			break
		}
		if sameTwin(&t.cfg, cfg) {
			twinLog = t
		}
	}
	if tw == nil {
		tw = twinLog
	}
	if tw != nil {
		mm.clock++
		tw.used = mm.clock
	}
	return tw, true
}

// replay feeds tw's log to arena st's armed tracker and, on a twin
// replay, drives its armed defenses too (each on its channel's slice of
// the banks). It reports false at their first answer Nop would not give,
// with the index of the entry that drew it — the armed half is then
// dirty and must be re-armed. A stream walk always completes.
func (l *layout) replay(st *poolState, tw *twin) (diverged int, ok bool) {
	if d := l.walk(st, tw, tw.n); d < tw.n {
		return d, false
	}
	st.tracker.endRun(tw.res.Cycles, l.cfg.MaxCycles)
	return tw.n, true
}

// walk is replay's loop over the first limit entries of tw's log: it
// returns limit, or the index of the entry whose ACT the defense did not
// answer as Nop would.
func (l *layout) walk(st *poolState, tw *twin, limit int) int {
	tr := st.tracker
	var defs []mitigation.Defense
	if !sameStream(&tw.cfg, &l.cfg) {
		defs = st.defs
	}
	i := 0
	for _, block := range tw.log {
		for _, e := range block {
			if i == limit {
				return i
			}
			bank, row, at := e.bank(), e.row(), e.at()
			switch e.kind() {
			case evACT:
				if defs == nil {
					tr.OnAct(bank, row, at)
					break
				}
				def, local := defs[bank/l.banksPerChan], bank%l.banksPerChan
				if ok, _ := def.CanActivate(local, row, at); !ok {
					return i
				}
				tr.OnAct(bank, row, at)
				if len(def.OnActivate(local, row, at)) != 0 {
					return i
				}
			case evPRE:
				tr.OnPre(bank, row, at)
			case evREF:
				tr.OnRefresh(bank, row, int(at))
			case evSWAP:
				tr.OnRowsSwapped(bank, row, int(at))
			}
			i++
		}
	}
	return i
}

// result is the recorded Result as the replayed cell's: its own copy of
// the IPC slice, and the cell's own Violations.
func (tw *twin) result(violations uint64) Result {
	res := tw.res
	res.IPC = slices.Clone(tw.res.IPC)
	res.Violations = violations
	return res
}

// record attaches a new log to m's tracker, which then logs every
// command it receives, if m did not diverge from a twin and the memo
// neither holds nor is already recording cfg's twin or, unless cfg is a
// twin itself, its family's stream. A static defense cell whose twin is in flight records nothing:
// its twin will serve its family's static cells.
func (mm *twinMemo) record(cfg *Config, m *machine) {
	if mm == nil || m.obs.TwinDiverged != 0 {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, t := range mm.held {
		if sameTwin(&t.cfg, cfg) || !isTwin(cfg) && sameStream(&t.cfg, cfg) {
			return
		}
	}
	tw := &twin{cfg: *cfg, max: (mm.limit()/twinShare - twinOverhead) / 8}
	tw.cfg.Mix = slices.Clone(cfg.Mix)
	if cfg.Temporal != nil {
		p := *cfg.Temporal
		tw.cfg.Temporal = &p
	}
	mm.held = append(mm.held, tw)
	m.tracker.log = tw
	if isTwin(cfg) {
		tw.every, tw.ckMax = checkpointEvery, mm.limit()/twinShare
		if mm.every > 0 {
			tw.every = mm.every
		}
		m.saveAt = tw.every
	}
}

// finish detaches the log tr was recording, if any, and hands it with
// res to the memo, evicting least recently used logs beyond the budget,
// or drops its slot if the log is unusable or a stream recorder was
// truncated (its walk could not end where its run did; a truncated twin
// still serves its defense cells).
func (mm *twinMemo) finish(tr *secTracker, res Result) {
	tw := tr.log
	if tw == nil {
		return
	}
	tr.log = nil
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if tw.lost || !isTwin(&tw.cfg) && !res.Finished {
		mm.drop(tw)
		return
	}
	tw.ready = true
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

// abandon drops the slot tr is still recording into: finish never ran,
// because the run panicked. An unready log left held would keep its
// family from ever recording again.
func (mm *twinMemo) abandon(tr *secTracker) {
	tw := tr.log
	if tw == nil {
		return
	}
	tr.log = nil
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.drop(tw)
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
// (the last block's unused tail, under 8 KiB, is not charged), its
// checkpoints and its overhead.
func (t *twin) size() int { return t.n*8 + t.ckBytes + twinOverhead }

// add logs one command, or marks the log lost if it does not fit.
func (tw *twin) add(kind, bank, row int, at uint64) {
	if tw.lost {
		return
	}
	e, ok := packEvent(kind, bank, row, at)
	if !ok || tw.n == tw.max {
		tw.lost, tw.log = true, nil
		tw.ckpts, tw.ckBytes = nil, 0
		return
	}
	if tw.n%twinBlock == 0 {
		tw.log = append(tw.log, make([]twinEvent, 0, twinBlock))
	}
	last := &tw.log[len(tw.log)-1]
	*last = append(*last, e)
	tw.n++
}
