package trace

import (
	"testing"
	"testing/quick"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 25 {
		t.Fatalf("catalog has %d workloads; the mixes need a wide pool", len(cat))
	}
	suites := map[string]int{}
	names := map[string]bool{}
	for _, w := range cat {
		suites[w.Suite]++
		if names[w.Name] {
			t.Fatalf("duplicate workload name %s", w.Name)
		}
		names[w.Name] = true
		if w.GapMean <= 0 || w.Footprint == 0 {
			t.Errorf("%s: degenerate parameters", w.Name)
		}
		if w.SeqProb < 0 || w.SeqProb > 1 || w.WriteFrac < 0 || w.WriteFrac > 1 {
			t.Errorf("%s: probabilities out of range", w.Name)
		}
	}
	for _, s := range []string{"SPEC06", "SPEC17", "TPC", "Media", "YCSB"} {
		if suites[s] == 0 {
			t.Errorf("suite %s missing (the paper draws from five suites)", s)
		}
	}
}

func TestMixesDeterministicAndSized(t *testing.T) {
	a := Mixes(120, 8, 7)
	b := Mixes(120, 8, 7)
	if len(a) != 120 {
		t.Fatalf("mixes = %d", len(a))
	}
	for i := range a {
		if len(a[i]) != 8 {
			t.Fatalf("mix %d has %d cores", i, len(a[i]))
		}
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				t.Fatal("mixes not deterministic")
			}
			if _, ok := ByName(a[i][c]); !ok {
				t.Fatalf("mix references unknown workload %s", a[i][c])
			}
		}
	}
}

func TestSynthRespectsFootprintAndBase(t *testing.T) {
	w, _ := ByName("mcf06")
	base := uint64(1) << 40
	g := NewSynth(w, base, 3)
	for i := 0; i < 50_000; i++ {
		gap, addr, _ := g.Next()
		if gap < 0 {
			t.Fatal("negative gap")
		}
		if addr < base || addr >= base+w.Footprint {
			t.Fatalf("address %x outside [%x, %x)", addr, base, base+w.Footprint)
		}
	}
}

func TestSynthWriteFraction(t *testing.T) {
	w, _ := ByName("ycsb-a") // 50% writes
	g := NewSynth(w, 0, 5)
	writes := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		_, _, wr := g.Next()
		if wr {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("write fraction = %v, want ~0.5", frac)
	}
}

func TestStreamingVsRandomLocality(t *testing.T) {
	seq := func(name string) float64 {
		w, _ := ByName(name)
		g := NewSynth(w, 0, 9)
		_, prev, _ := g.Next()
		sequential := 0
		const n = 20_000
		for i := 0; i < n; i++ {
			_, addr, _ := g.Next()
			if addr == prev+64 {
				sequential++
			}
			prev = addr
		}
		return float64(sequential) / n
	}
	if s, r := seq("lbm06"), seq("mcf06"); s < 2*r {
		t.Errorf("streaming locality (%v) not above pointer-chasing (%v)", s, r)
	}
}

func TestZipfWorkloadsReuseHotSet(t *testing.T) {
	w, _ := ByName("ycsb-c")
	g := NewSynth(w, 0, 11)
	counts := map[uint64]int{}
	const n = 50_000
	for i := 0; i < n; i++ {
		_, addr, _ := g.Next()
		counts[addr>>6]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 20 {
		t.Errorf("hottest block touched %d times; zipf reuse missing", max)
	}
}

func TestAttackers(t *testing.T) {
	rc := &RowCycler{Base: 0, Stride: 1 << 18, Count: 100}
	seen := map[uint64]bool{}
	for i := 0; i < 250; i++ {
		gap, addr, wr := rc.Next()
		if gap != 0 || wr {
			t.Fatal("attacker must be a pure read storm")
		}
		seen[addr] = true
	}
	if len(seen) != 100 {
		t.Errorf("cycler touched %d distinct addresses, want 100", len(seen))
	}
	ph := &PairHammer{A: 0, B: 1 << 18}
	a, b := 0, 0
	for i := 0; i < 100; i++ {
		_, addr, _ := ph.Next()
		switch addr {
		case ph.A:
			a++
		case ph.B:
			b++
		default:
			t.Fatal("pair hammer strayed")
		}
	}
	if a != 50 || b != 50 {
		t.Errorf("pair hammer split %d/%d", a, b)
	}
}

func TestQuickSynthAddressesInRange(t *testing.T) {
	w, _ := ByName("tpcc")
	f := func(seed uint16) bool {
		g := NewSynth(w, 0, uint64(seed))
		for i := 0; i < 200; i++ {
			_, addr, _ := g.Next()
			if addr >= w.Footprint {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSeekContinuesStream: a generator built the same way and moved to
// another's Pos continues that stream exactly, for every generator the
// simulator builds — zipfian and uniform synthetic workloads and both
// attack patterns.
func TestSeekContinuesStream(t *testing.T) {
	type generator interface {
		Next() (int, uint64, bool)
		Seeker
	}
	ycsb, _ := ByName("ycsb-a")
	lbm, _ := ByName("lbm06")
	for name, build := range map[string]func() generator{
		"ycsb-a":    func() generator { return NewSynth(ycsb, 1<<34, 5) },
		"lbm06":     func() generator { return NewSynth(lbm, 0, 9) },
		"rowcycler": func() generator { return &RowCycler{Base: 64, Stride: 1 << 20, Count: 7} },
		"pair":      func() generator { return &PairHammer{A: 0, B: 1 << 22} },
	} {
		orig := build()
		for range 1001 {
			orig.Next()
		}
		resumed := build()
		resumed.Seek(orig.Pos())
		for i := range 1000 {
			g1, a1, w1 := orig.Next()
			g2, a2, w2 := resumed.Next()
			if g1 != g2 || a1 != a2 || w1 != w2 {
				t.Fatalf("%s: access %d after the seek is (%d, %#x, %v), the original stream's (%d, %#x, %v)", name, i, g2, a2, w2, g1, a1, w1)
			}
		}
	}
}
