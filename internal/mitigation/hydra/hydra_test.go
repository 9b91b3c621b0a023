package hydra

import (
	"testing"

	"svard/internal/core"
	"svard/internal/mitigation"
)

func TestGroupPhaseIsFree(t *testing.T) {
	si := mitigation.SystemInfo{Banks: 2, RowsPerBank: 4096, REFWCycles: 1 << 20, Seed: 3}
	d := New(si, core.Fixed(1024))
	// Below the group threshold no directives appear.
	for i := 0; i < int(core.Fixed(1024).MinBudget()/4)-1; i++ {
		if out := d.OnActivate(0, i%GroupSize, uint64(i)); out != nil {
			t.Fatalf("directive during group phase at act %d", i)
		}
	}
}

func TestRCCHitsAvoidTraffic(t *testing.T) {
	si := mitigation.SystemInfo{Banks: 2, RowsPerBank: 4096, REFWCycles: 1 << 30, Seed: 3}
	d := New(si, core.Fixed(1<<20)) // huge budget: no refreshes
	// Saturate one group, then hit the same row repeatedly: exactly one
	// miss, the rest RCC hits.
	meta := 0
	for i := 0; i < 4000; i++ {
		for _, dir := range d.OnActivate(0, 5, uint64(i)) {
			if dir.Kind == mitigation.ExtraMem {
				meta += dir.MemReads + dir.MemWrites
			}
		}
	}
	if meta > 1 {
		t.Errorf("repeated row caused %d metadata accesses, want <=1", meta)
	}
}

// TestCountsItsOwnVictimRefreshes hammers rows 10 and 14 alternately.
// Their victim refreshes open rows 11 and 13 over and over, and those
// ACTs bypass OnActivate, so Hydra must count them itself: row 12, beside
// both, has to be refreshed before its neighbours are opened as often as
// its activation budget allows.
func TestCountsItsOwnVictimRefreshes(t *testing.T) {
	const budget = 64
	si := mitigation.SystemInfo{Banks: 1, RowsPerBank: 4096, REFWCycles: 1 << 40, Seed: 3}
	d := New(si, core.Fixed(budget))
	refreshed := map[int]int{}
	since, worst := 0, 0 // refreshes of rows 11 and 13 since row 12's last
	for i := 0; i < 20_000; i++ {
		for _, dir := range d.OnActivate(0, 10+4*(i%2), uint64(i)) {
			if dir.Kind != mitigation.RefreshVictim {
				continue
			}
			refreshed[dir.Row]++
			switch dir.Row {
			case 11, 13:
				since++
				worst = max(worst, since)
			case 12:
				since = 0
			}
		}
	}
	if refreshed[11] == 0 || refreshed[13] == 0 {
		t.Fatalf("the aggressors' victims were never refreshed: %v", refreshed)
	}
	if worst >= budget {
		t.Errorf("rows 11 and 13 were refreshed %d times in a row without a refresh of row 12 (budget %d; refreshes per row %v)",
			worst, budget, refreshed)
	}
	t.Logf("refreshes per row %v; at most %d of rows 11 and 13 between two of row 12", refreshed, worst)
}
