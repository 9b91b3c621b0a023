package mitigation_test

import (
	"math/rand"
	"slices"
	"testing"

	"svard/internal/core"
	"svard/internal/disturb"
	"svard/internal/mitigation"
	"svard/internal/mitigation/aqua"
	"svard/internal/mitigation/blockhammer"
	"svard/internal/mitigation/hydra"
	"svard/internal/mitigation/para"
	"svard/internal/mitigation/rrs"
	"svard/internal/profile"
)

func testSI() mitigation.SystemInfo {
	return mitigation.SystemInfo{Banks: 4, RowsPerBank: 4096, REFWCycles: 1 << 20, Seed: 3}
}

func TestPARAProbability(t *testing.T) {
	if p := para.Probability(0); p != 1 {
		t.Errorf("p(0) = %v", p)
	}
	if p := para.Probability(10); p != 1 {
		t.Errorf("p(tiny threshold) = %v, want 1", p)
	}
	p64, p4k := para.Probability(64), para.Probability(4096)
	if p64 <= p4k {
		t.Error("probability must grow as threshold shrinks")
	}
	if p4k <= 0 || p4k >= 1 {
		t.Errorf("p(4096) = %v", p4k)
	}
}

func TestPARARefreshRateTracksThreshold(t *testing.T) {
	si := testSI()
	count := func(budget float64) int {
		d := para.New(si, core.Fixed(budget))
		n := 0
		for i := 0; i < 20000; i++ {
			n += len(d.OnActivate(0, 100, uint64(i)))
		}
		return n
	}
	if lo, hi := count(4096), count(64); lo >= hi/4 {
		t.Errorf("refresh volume at 4K (%d) not far below 64 (%d)", lo, hi)
	}
}

func TestBlockHammerThrottlesHammeredRow(t *testing.T) {
	si := testSI()
	d := blockhammer.New(si, core.Fixed(256))
	cycle := uint64(0)
	throttled := false
	for i := 0; i < 1000; i++ {
		ok, retry := d.CanActivate(1, 500, cycle)
		if !ok {
			throttled = true
			if retry <= cycle {
				t.Fatal("retry not in the future")
			}
			break
		}
		d.OnActivate(1, 500, cycle)
		cycle += 100
	}
	if !throttled {
		t.Fatal("1000 rapid activations never throttled at threshold 256")
	}
	if !d.Blacklisted(1, 500) {
		t.Error("hammered row not blacklisted")
	}
	// A cold row is unaffected.
	if ok, _ := d.CanActivate(1, 3000, cycle); !ok {
		t.Error("cold row throttled")
	}
}

func TestBlockHammerWindowForgets(t *testing.T) {
	si := testSI()
	d := blockhammer.New(si, core.Fixed(256))
	for i := 0; i < 200; i++ {
		d.OnActivate(0, 7, uint64(i))
	}
	if !d.Blacklisted(0, 7) {
		t.Fatal("row not blacklisted after 200 acts")
	}
	// After a full window both filters have rotated out.
	later := si.REFWCycles + si.REFWCycles/2 + 1
	if ok, _ := d.CanActivate(0, 7, later); !ok {
		t.Error("blacklist persisted across windows")
	}
}

func TestHydraEscalatesToPerRowAndRefreshes(t *testing.T) {
	si := testSI()
	d := hydra.New(si, core.Fixed(128))
	sawMeta, sawRefresh := false, false
	for i := 0; i < 5000; i++ {
		// Spread across a group to saturate the group counter first.
		row := 256 + i%hydra.GroupSize
		for _, dir := range d.OnActivate(2, row, uint64(i)) {
			switch dir.Kind {
			case mitigation.ExtraMem:
				sawMeta = true
			case mitigation.RefreshVictim:
				sawRefresh = true
			}
		}
	}
	if !sawMeta {
		t.Error("Hydra never generated counter traffic")
	}
	if !sawRefresh {
		t.Error("Hydra never issued preventive refreshes")
	}
}

func TestRRSSwapsAtThreshold(t *testing.T) {
	si := testSI()
	d := rrs.New(si, core.Fixed(64), 3.2)
	var swaps []mitigation.Directive
	for i := 0; i < 100; i++ {
		for _, dir := range d.OnActivate(0, 42, uint64(i)) {
			if dir.Kind == mitigation.SwapRows {
				swaps = append(swaps, dir)
			}
		}
	}
	// Threshold 64 * TriggerFraction = 16: 100 acts → ~6 swaps.
	if len(swaps) < 4 {
		t.Fatalf("swaps = %d, want several", len(swaps))
	}
	for _, s := range swaps {
		if s.Row == s.DstRow {
			t.Error("swap with itself")
		}
		if s.BusyCycles == 0 {
			t.Error("free swap")
		}
	}
	if d.Swaps() != uint64(len(swaps)) {
		t.Error("swap telemetry mismatch")
	}
}

func TestAQUAQuarantinesIntoReservedRegion(t *testing.T) {
	si := testSI()
	d := aqua.New(si, core.Fixed(64), 3.2)
	var moves []mitigation.Directive
	for i := 0; i < 200; i++ {
		for _, dir := range d.OnActivate(3, 10, uint64(i)) {
			if dir.Kind == mitigation.SwapRows {
				moves = append(moves, dir)
			}
		}
	}
	if len(moves) == 0 {
		t.Fatal("no quarantine migrations")
	}
	for _, m := range moves {
		if m.DstRow < d.QuarantineStart() {
			t.Errorf("migration target %d outside quarantine (starts %d)", m.DstRow, d.QuarantineStart())
		}
	}
	// AQUA's one-row migration must cost less than RRS's two-row swap.
	r := rrs.New(si, core.Fixed(64), 3.2)
	var rrsCost uint64
	for i := 0; i < 100; i++ {
		for _, dir := range r.OnActivate(0, 5, uint64(i)) {
			if dir.Kind == mitigation.SwapRows {
				rrsCost = dir.BusyCycles
			}
		}
	}
	if moves[0].BusyCycles >= rrsCost {
		t.Errorf("AQUA migration (%d cycles) not cheaper than RRS swap (%d)", moves[0].BusyCycles, rrsCost)
	}
}

// Svärd integration: a defense built over per-row thresholds must act
// less on strong rows than on weak rows.
func TestDefensesUseSvardBudgets(t *testing.T) {
	si := testSI()
	weak := core.Fixed(64)
	strong := core.Fixed(2048)
	countSwaps := func(th core.Thresholds) uint64 {
		d := rrs.New(si, th, 3.2)
		for i := 0; i < 2000; i++ {
			d.OnActivate(0, 99, uint64(i))
		}
		return d.Swaps()
	}
	if w, s := countSwaps(weak), countSwaps(strong); s >= w {
		t.Errorf("strong threshold swaps (%d) not below weak (%d)", s, w)
	}
}

// TestUniformProfileIsFixed is ROADMAP item 4(b)'s first metamorphic
// property at the defense level: a profile that puts every row in one
// bin, scaled to that bin's own level L (a factor of exactly 1), gives
// Svärd the budgets of the profile-oblivious nRH = L, bit for bit, and
// so every defense the same answers with Svärd as without. Each defense
// is driven twice, once per threshold source, through one seeded ACT
// sequence; every CanActivate answer and every directive must agree.
func TestUniformProfileIsFixed(t *testing.T) {
	si := testSI()
	levels := disturb.HammerLevels()
	const bin = 0
	level := levels[bin]
	banks := make([]int, si.Banks)
	for b := range banks {
		banks[b] = b
	}
	p := profile.NewEmpty("uniform", si.RowsPerBank, banks, levels)
	for pos := range banks {
		for row := 0; row < si.RowsPerBank; row++ {
			p.SetBin(pos, row, bin+1) // first flip at the next level: safe at L
		}
	}
	view := p.ScaledTo(level)
	if view.Factor != 1 {
		t.Fatalf("uniform profile scaled to its own level %v: factor %v, want 1", level, view.Factor)
	}
	sv, err := core.New(view)
	if err != nil {
		t.Fatal(err)
	}
	fixed := core.Fixed(level)
	if sv.MinBudget() != fixed.MinBudget() {
		t.Fatalf("MinBudget: Svärd %v, fixed %v", sv.MinBudget(), fixed.MinBudget())
	}
	for bank := 0; bank < si.Banks; bank++ {
		for row := 0; row < si.RowsPerBank; row++ {
			if got, want := sv.ActivationBudget(bank, row), fixed.ActivationBudget(bank, row); got != want {
				t.Fatalf("ActivationBudget(%d, %d): Svärd %v, fixed %v", bank, row, got, want)
			}
		}
	}

	builds := []struct {
		name string
		make func(core.Thresholds) mitigation.Defense
	}{
		{"para", func(th core.Thresholds) mitigation.Defense { return para.New(si, th) }},
		{"blockhammer", func(th core.Thresholds) mitigation.Defense { return blockhammer.New(si, th) }},
		{"hydra", func(th core.Thresholds) mitigation.Defense { return hydra.New(si, th) }},
		{"rrs", func(th core.Thresholds) mitigation.Defense { return rrs.New(si, th, 3.2) }},
		{"aqua", func(th core.Thresholds) mitigation.Defense { return aqua.New(si, th, 3.2) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			with, without := b.make(sv), b.make(fixed)
			r := rand.New(rand.NewSource(11))
			hot := []int{7, 8, 500, 501, 2047, 4095}
			cycle := uint64(0)
			var denies, directives int
			for step := 0; step < 40_000; step++ {
				cycle += uint64(r.Intn(64))
				bank, row := r.Intn(si.Banks), r.Intn(si.RowsPerBank)
				if r.Intn(4) != 0 {
					row = hot[r.Intn(len(hot))]
				}
				okW, retryW := with.CanActivate(bank, row, cycle)
				okF, retryF := without.CanActivate(bank, row, cycle)
				if okW != okF || retryW != retryF {
					t.Fatalf("step %d: CanActivate(%d, %d, %d) = %v, %d with Svärd, %v, %d without",
						step, bank, row, cycle, okW, retryW, okF, retryF)
				}
				if !okW {
					denies++
					continue
				}
				dirW, dirF := with.OnActivate(bank, row, cycle), without.OnActivate(bank, row, cycle)
				if !slices.Equal(dirW, dirF) {
					t.Fatalf("step %d: OnActivate(%d, %d, %d) = %+v with Svärd, %+v without",
						step, bank, row, cycle, dirW, dirF)
				}
				directives += len(dirW)
			}
			// The comparison is only worth what the sequence made the
			// defense do.
			if directives == 0 && denies == 0 {
				t.Errorf("the ACT sequence never made %s act", b.name)
			}
			t.Logf("%s: %d directives, %d denied ACTs", b.name, directives, denies)
		})
	}
}
