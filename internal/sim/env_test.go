package sim

import (
	"reflect"
	"testing"

	"svard/internal/obs"
)

// testEnv is an env over the default environment's calibrated modules,
// with twin memo memo (nil: every run simulates in full) and arenas of
// its own, so a test pins the memo its counters depend on without
// calibrating its modules again.
func testEnv(memo *twinMemo) *env {
	return &env{modules: defaultEnv.modules, memo: memo}
}

// newMachine builds the simulated system of cfg on an empty arena over
// e's modules: the build runOn does, with no twin memo.
func (e *env) newMachine(cfg Config) (*machine, error) {
	st := newPoolState()
	l, err := newLayout(cfg, e.modules)
	if err == nil {
		err = l.arm(st)
	}
	if err != nil {
		return nil, err
	}
	return l.assemble(st)
}

// TestEnvsShareNothing: what one env holds serves none of another's
// runs. A defense cell whose twin env A recorded replays it there; the
// same cell in env B finds no twin and simulates, to the same Result;
// and B calibrates its module itself instead of reading A's.
func TestEnvsShareNothing(t *testing.T) {
	cell := tinyBase()
	cell.Defense = "rrs" // never acts at nRH 1024 on this shape
	cell.Mix = []string{"mcf06", "ycsb-a"}
	a := &env{modules: &moduleTable{}, memo: &twinMemo{}}
	b := &env{modules: &moduleTable{}, memo: &twinMemo{}}
	if _, err := a.run(twinConfig(cell), nil); err != nil {
		t.Fatal(err)
	}
	var inA, inB obs.Recorder
	resA, err := a.run(cell, &inA)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.modules.entries) != 0 {
		t.Fatalf("env B holds %d modules before its first run", len(b.modules.entries))
	}
	resB, err := b.run(cell, &inB)
	if err != nil {
		t.Fatal(err)
	}
	if c := inA.Counters; c.TwinReplays != 1 {
		t.Errorf("env A: twin_replays=%d twin_missed=%d, want its own twin replayed", c.TwinReplays, c.TwinMissed)
	}
	if c := inB.Counters; c.TwinMissed != 1 || c.TwinReplays != 0 {
		t.Errorf("env B: twin_replays=%d twin_missed=%d, want a miss", c.TwinReplays, c.TwinMissed)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("the two envs disagree on the cell:\nA: %+v\nB: %+v", resA, resB)
	}
	if len(b.modules.entries) == 0 {
		t.Fatal("env B built no module")
	}
	for key, e := range b.modules.entries {
		if mine := a.modules.entries[key]; mine == e || mine != nil && mine.mod == e.mod {
			t.Errorf("env B's module %v is env A's", key)
		}
	}
}

// TestModuleLookupAllocs: finding a module already in the table
// allocates nothing.
func TestModuleLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	key := moduleKey{label: "S0", rows: 512, cells: 512, banks: 16, seed: 1}
	if _, err := defaultEnv.modules.get(key); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { defaultEnv.modules.get(key) }); n != 0 {
		t.Errorf("a module table hit allocates %v objects", n)
	}
}
