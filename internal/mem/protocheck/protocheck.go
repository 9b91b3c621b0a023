// Package protocheck validates a DRAM command stream against the DDR
// timing rules. It is test support — no binary links it — and the second,
// independent statement of the rules mem.System implements: it is written
// from mem.Timing, the rank/group/bank counts and the observed commands
// alone, and knows nothing of mem.System's fields or of the controller, so
// agreement between the two is evidence and not a tautology.
//
// A violation of any rule is a bug in the timing model or the controller,
// and fails the test that attached the checker.
//
// Defenses need no modelling here: a blocked bank or a throttled ACT only
// delays commands, and every rule is a lower bound on a command's cycle.
package protocheck

import (
	"errors"
	"fmt"

	"svard/internal/mem"
)

// Rule names one constraint on the command stream.
type Rule uint8

const (
	ActToOpenBank    Rule = iota // ACT to a bank that has a row open
	TRP                          // PRE to ACT, same bank
	TRC                          // ACT to ACT, same bank
	TRRDS                        // ACT to ACT, same rank, different bank group
	TRRDL                        // ACT to ACT, same rank, same bank group
	TFAW                         // at most four ACTs per rank in any tFAW window
	ActInRefresh                 // ACT to a rank inside its tRFC
	PreToClosedBank              // PRE to a bank with no row open
	TRAS                         // ACT to PRE
	TRTP                         // RD to PRE
	TWR                          // end of a WR burst to PRE
	ColumnToWrongRow             // RD/WR to a closed bank or not to its open row
	TRCD                         // ACT to RD/WR
	TCCDL                        // RD/WR to RD/WR, same bank group
	TCCDS                        // RD/WR to RD/WR, same rank, different bank groups
	TWTRL                        // end of a WR burst to RD, same bank group
	TWTRS                        // end of a WR burst to RD, same rank, different bank group
	BusOverlap                   // a data burst starts before the previous one ends
	RefWithOpenBank              // REF to a rank with a row open
	RefInRefresh                 // REF to a rank inside its tRFC
	TRPBeforeREF                 // PRE to REF, same rank

	NumRules
)

var ruleNames = [NumRules]string{
	"ACT to open bank", "tRP", "tRC", "tRRD_S", "tRRD_L", "tFAW", "ACT inside tRFC",
	"PRE to closed bank", "tRAS", "tRTP", "tWR",
	"column to wrong row", "tRCD", "tCCD_L", "tCCD_S", "tWTR_L", "tWTR_S", "data bus overlap",
	"REF with a bank open", "REF inside tRFC", "tRP before REF",
}

func (r Rule) String() string { return ruleNames[r] }

// Count is how often a rule applied to a command and how often the
// command broke it.
type Count struct{ Broken, Checked uint64 }

// stamp is the cycle of some earlier event, if there was one. Stamps are
// never cleared: time only moves forward, so a rule measured from an event
// that a later command already waited out stays satisfied.
type stamp struct {
	at  uint64
	set bool
}

func (s *stamp) mark(at uint64) { *s = stamp{at: at, set: true} }

// later keeps the later of s and o.
func (s *stamp) later(o stamp) {
	if o.set && (!s.set || o.at > s.at) {
		*s = o
	}
}

type bank struct {
	open    bool
	row     int
	act     stamp // last ACT
	pre     stamp // last PRE
	read    stamp // last RD
	written stamp // end of the last WR burst
}

type group struct {
	act     stamp // last ACT to the group
	col     stamp // last RD/WR to the group
	written stamp // end of the last WR burst to the group
}

type rank struct {
	acts   [4]uint64 // cycles of the last four ACTs, oldest first
	nActs  uint64
	ref    stamp // last REF
	groups []group
}

// verdict is one rule's outcome for one command.
type verdict struct {
	rule   Rule
	broken bool
	from   uint64 // timing rules: the first cycle the rule allows the command (state rules: 0)
}

// Checker holds what the rules need to remember of the stream so far, for
// the banks of one channel.
type Checker struct {
	t             mem.Timing
	groups, perGG int // bank groups per rank, banks per group
	banks         []bank
	ranks         []rank
	burstEnd      stamp // end of the last data burst on the channel's bus

	// Counts is indexed by Rule.
	Counts [NumRules]Count

	at       uint64    // cycle of the command being judged
	verdicts []verdict // its verdicts (scratch)
	first    []string  // the first few violations, for Err
}

// New returns a checker for one channel of ranks x groups x banksPerGroup
// banks under timing t. Bank indices are mem.System's: rank-major, then
// bank group, then bank.
func New(t mem.Timing, ranks, groups, banksPerGroup int) *Checker {
	c := &Checker{t: t, groups: groups, perGG: banksPerGroup}
	c.banks = make([]bank, ranks*groups*banksPerGroup)
	c.ranks = make([]rank, ranks)
	for r := range c.ranks {
		c.ranks[r].groups = make([]group, groups)
	}
	return c
}

// Attach returns a checker sized for s and makes it s's observer. A
// Reset of s (a pooled reuse) detaches it.
func Attach(s *mem.System) *Checker {
	c := New(s.T, len(s.Ranks), s.BankGroups, s.BanksPerGG)
	s.Observer = c.Observe
	return c
}

// state judges a rule about what state the target is in.
func (c *Checker) state(rule Rule, broken bool) {
	c.verdicts = append(c.verdicts, verdict{rule: rule, broken: broken})
}

// gap judges a rule that demands need cycles since an earlier event; it
// does not apply when the event never happened.
func (c *Checker) gap(rule Rule, since stamp, need uint64) {
	if since.set {
		c.verdicts = append(c.verdicts, verdict{rule: rule, broken: c.at < since.at+need, from: since.at + need})
	}
}

// locate splits a global bank index.
func (c *Checker) locate(b int) (rk *rank, g int) {
	perRank := c.groups * c.perGG
	return &c.ranks[b/perRank], b % perRank / c.perGG
}

func (c *Checker) latency(write bool) uint64 {
	if write {
		return c.t.CWL
	}
	return c.t.CL
}

// judge evaluates every rule that applies to cmd in the current state
// into c.verdicts. It changes nothing else.
func (c *Checker) judge(cmd mem.Command) []verdict {
	c.at, c.verdicts = cmd.Cycle, c.verdicts[:0]
	t := &c.t
	if cmd.Kind == 'R' {
		perRank := c.groups * c.perGG
		open := false
		var pre stamp // last PRE to the rank
		for _, b := range c.banks[cmd.Bank*perRank:][:perRank] {
			open = open || b.open
			pre.later(b.pre)
		}
		c.state(RefWithOpenBank, open)
		c.gap(RefInRefresh, c.ranks[cmd.Bank].ref, t.RFC)
		c.gap(TRPBeforeREF, pre, t.RP)
		return c.verdicts
	}
	b := &c.banks[cmd.Bank]
	rk, g := c.locate(cmd.Bank)
	own := &rk.groups[g]
	var others group // the latest events in the rank's other groups
	for i := range rk.groups {
		if i != g {
			others.act.later(rk.groups[i].act)
			others.col.later(rk.groups[i].col)
			others.written.later(rk.groups[i].written)
		}
	}
	switch cmd.Kind {
	case 'A':
		c.state(ActToOpenBank, b.open)
		c.gap(TRP, b.pre, t.RP)
		c.gap(TRC, b.act, t.RC)
		c.gap(TRRDL, own.act, t.RRDL)
		c.gap(TRRDS, others.act, t.RRDS)
		c.gap(TFAW, stamp{at: rk.acts[0], set: rk.nActs >= 4}, t.FAW)
		c.gap(ActInRefresh, rk.ref, t.RFC)
	case 'P':
		c.state(PreToClosedBank, !b.open)
		c.gap(TRAS, b.act, t.RAS)
		c.gap(TRTP, b.read, t.RTP)
		c.gap(TWR, b.written, t.WR)
	case 'C':
		c.state(ColumnToWrongRow, !b.open || b.row != cmd.Row)
		c.gap(TRCD, b.act, t.RCD)
		c.gap(TCCDL, own.col, t.CCDL)
		c.gap(TCCDS, others.col, t.CCDS)
		if !cmd.Write {
			c.gap(TWTRL, own.written, t.WTRL)
			c.gap(TWTRS, others.written, t.WTRS)
		}
		if end := c.burstEnd; end.set {
			// The burst starts one latency after the command, and not
			// before the previous burst has left the bus.
			lat := c.latency(cmd.Write)
			c.verdicts = append(c.verdicts, verdict{rule: BusOverlap, broken: c.at+lat < end.at, from: end.at - min(end.at, lat)})
		}
	default:
		panic(fmt.Sprintf("protocheck: unknown command kind %q", cmd.Kind))
	}
	return c.verdicts
}

// Check returns the rules cmd would break if it issued now, nil
// when it is legal. It records nothing: the exactness tests ask it about
// commands that never issue.
func (c *Checker) Check(cmd mem.Command) []Rule {
	var broken []Rule
	for _, v := range c.judge(cmd) {
		if v.broken {
			broken = append(broken, v.rule)
		}
	}
	return broken
}

// maxRemembered bounds the violations Err spells out.
const maxRemembered = 8

// Observe judges an issued command, counts the outcome of every rule that
// applied, and advances the state. It is the mem.System.Observer.
func (c *Checker) Observe(cmd mem.Command) {
	for _, v := range c.judge(cmd) {
		n := &c.Counts[v.rule]
		n.Checked++
		if !v.broken {
			continue
		}
		n.Broken++
		if len(c.first) < maxRemembered {
			msg := fmt.Sprintf("%s: %s at cycle %d", v.rule, describe(cmd), cmd.Cycle)
			if v.from > 0 { // a timing rule
				msg += fmt.Sprintf(", allowed from cycle %d", v.from)
			}
			c.first = append(c.first, msg)
		}
	}
	at := cmd.Cycle
	if cmd.Kind == 'R' {
		c.ranks[cmd.Bank].ref.mark(at)
		return
	}
	b := &c.banks[cmd.Bank]
	rk, g := c.locate(cmd.Bank)
	own := &rk.groups[g]
	switch cmd.Kind {
	case 'A':
		b.open, b.row = true, cmd.Row
		b.act.mark(at)
		own.act.mark(at)
		copy(rk.acts[:], rk.acts[1:])
		rk.acts[3] = at
		rk.nActs++
	case 'P':
		b.open = false
		b.pre.mark(at)
	case 'C':
		own.col.mark(at)
		end := stamp{at: at + c.latency(cmd.Write) + c.t.BL, set: true}
		c.burstEnd.later(end)
		if cmd.Write {
			b.written, own.written = end, end
		} else {
			b.read.mark(at)
		}
	}
}

func describe(cmd mem.Command) string {
	switch cmd.Kind {
	case 'A':
		return fmt.Sprintf("ACT bank %d row %d", cmd.Bank, cmd.Row)
	case 'P':
		return fmt.Sprintf("PRE bank %d row %d", cmd.Bank, cmd.Row)
	case 'R':
		return fmt.Sprintf("REF rank %d", cmd.Bank)
	}
	if cmd.Write {
		return fmt.Sprintf("WR bank %d row %d", cmd.Bank, cmd.Row)
	}
	return fmt.Sprintf("RD bank %d row %d", cmd.Bank, cmd.Row)
}

// Commands returns how many commands of each kind were observed, read off
// the one rule that applies to every command of the kind: a test compares
// them with the controller's own statistics to know the checker saw the
// whole stream.
func (c *Checker) Commands() (act, pre, col, ref uint64) {
	return c.Counts[ActToOpenBank].Checked, c.Counts[PreToClosedBank].Checked,
		c.Counts[ColumnToWrongRow].Checked, c.Counts[RefWithOpenBank].Checked
}

// Err is nil when the stream broke no rule so far; otherwise it
// gives every broken rule's count and spells out the first few violations.
func (c *Checker) Err() error {
	var errs []error
	for r := Rule(0); r < NumRules; r++ {
		if n := c.Counts[r]; n.Broken > 0 {
			errs = append(errs, fmt.Errorf("%s broken by %d of %d commands", r, n.Broken, n.Checked))
		}
	}
	for _, v := range c.first {
		errs = append(errs, errors.New(v))
	}
	return errors.Join(errs...)
}
