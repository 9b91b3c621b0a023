package disturb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"svard/internal/dram"
)

func testGeom() *dram.Geometry {
	g := &dram.Geometry{BankGroups: 2, BanksPerGroup: 2, RowsPerBank: 2048, CellsPerRow: 8192}
	g.BuildSubarrays(1, 330, 512)
	return g
}

func testModel() *Model {
	return NewModel(DefaultParams(99), testGeom())
}

func TestHammerLevels(t *testing.T) {
	levels := HammerLevels()
	if len(levels) != 14 {
		t.Fatalf("got %d levels, want 14 (Alg. 1)", len(levels))
	}
	if levels[0] != 1024 || levels[13] != 128*1024 {
		t.Errorf("level endpoints wrong: %v .. %v", levels[0], levels[13])
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatal("levels not ascending")
		}
	}
}

func TestQuantize(t *testing.T) {
	levels := HammerLevels()
	if l, ok := Quantize(levels, 1000); !ok || l != 1024 {
		t.Errorf("Quantize(1000) = %v,%v", l, ok)
	}
	if l, ok := Quantize(levels, 1024); !ok || l != 1024 {
		t.Errorf("Quantize(1024) = %v,%v", l, ok)
	}
	if l, ok := Quantize(levels, 1025); !ok || l != 2048 {
		t.Errorf("Quantize(1025) = %v,%v", l, ok)
	}
	if _, ok := Quantize(levels, 129*1024); ok {
		t.Error("Quantize beyond max level should be censored")
	}
}

func TestHCFirstDeterministicPositive(t *testing.T) {
	m := testModel()
	for row := 0; row < 100; row++ {
		a := m.HCFirst(0, row)
		b := m.HCFirst(0, row)
		if a != b {
			t.Fatalf("HCFirst not deterministic at row %d", row)
		}
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("HCFirst(0,%d) = %v", row, a)
		}
	}
}

func TestHCFirstVariesAcrossRows(t *testing.T) {
	m := testModel()
	first := m.HCFirst(0, 0)
	varied := false
	for row := 1; row < 50; row++ {
		if m.HCFirst(0, row) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("HCFirst constant across rows; spatial variation missing")
	}
}

func TestHCFirstBelowHCMid(t *testing.T) {
	// The weakest cell threshold must not exceed the median cell
	// threshold by construction (lift > 0, noise bounded in practice).
	m := testModel()
	for row := 0; row < 500; row++ {
		if m.LnHCFirst(1, row) >= m.LnHCMid(1, row) {
			t.Fatalf("row %d: HCfirst above hcMid", row)
		}
	}
}

func TestBERMonotone(t *testing.T) {
	m := testModel()
	prev := -1.0
	for _, eff := range []float64{0, 1000, 10000, 50000, 200000, 1e6, 1e8} {
		ber := m.BER(0, 7, eff)
		if ber < prev {
			t.Fatalf("BER not monotone at eff=%v: %v < %v", eff, ber, prev)
		}
		if ber < 0 || ber > m.P.BERSat {
			t.Fatalf("BER out of [0, BERSat]: %v", ber)
		}
		prev = ber
	}
}

func TestFlipCountThresholdSemantics(t *testing.T) {
	m := testModel()
	for row := 0; row < 50; row++ {
		hcf := m.HCFirst(0, row)
		pat := m.WCDP(0, row)
		if n := m.FlipCountAt(0, row, hcf*0.999, pat); n != 0 {
			t.Fatalf("row %d flips below HCfirst: %d", row, n)
		}
		if n := m.FlipCountAt(0, row, hcf, pat); n < 1 {
			t.Fatalf("row %d does not flip at HCfirst", row)
		}
	}
}

func TestFlipCountMonotoneAndCapped(t *testing.T) {
	m := testModel()
	row := 11
	pat := m.WCDP(0, row)
	prev := 0
	for eff := 1000.0; eff < 1e9; eff *= 2 {
		n := m.FlipCountAt(0, row, eff, pat)
		if n < prev {
			t.Fatalf("flip count not monotone at eff=%v", eff)
		}
		if n > m.Geom.CellsPerRow {
			t.Fatalf("flip count exceeds cells: %d", n)
		}
		prev = n
	}
}

func TestWCDPCoupleContract(t *testing.T) {
	m := testModel()
	for row := 0; row < 200; row++ {
		w := m.WCDP(0, row)
		if c := m.Couple(0, row, w); c != 1 {
			t.Fatalf("WCDP coupling = %v, want 1", c)
		}
		for _, p := range dram.AllPatterns {
			c := m.Couple(0, row, p)
			if c <= 0 || c > 1 {
				t.Fatalf("coupling out of (0,1]: %v", c)
			}
		}
	}
}

func TestWCDPFavoursRowStripeFamily(t *testing.T) {
	m := testModel()
	counts := map[dram.Pattern]int{}
	for row := 0; row < 2000; row++ {
		counts[m.WCDP(0, row)]++
	}
	rs := counts[dram.RowStripe] + counts[dram.RowStripeInv]
	if float64(rs)/2000 < 0.5 {
		t.Errorf("row-stripe family WCDP share = %v, want > 0.5", float64(rs)/2000)
	}
}

func TestPressFactorShape(t *testing.T) {
	m := testModel()
	// Aggregate across rows: median HCfirst reduction ~3-8x at 0.5us and
	// ~8-20x at 2us (Fig. 7 / Takeaway 5 shapes).
	var sum05, sum2 float64
	const rows = 500
	for row := 0; row < rows; row++ {
		if pf := m.PressFactor(0, row, 36); pf != 1 {
			t.Fatalf("press factor at tRAS = %v, want 1", pf)
		}
		pf05 := m.PressFactor(0, row, 500)
		pf2 := m.PressFactor(0, row, 2000)
		if pf2 <= pf05 || pf05 <= 1 {
			t.Fatalf("press factor not increasing: %v %v", pf05, pf2)
		}
		sum05 += pf05
		sum2 += pf2
	}
	mean05, mean2 := sum05/rows, sum2/rows
	if mean05 < 3 || mean05 > 8 {
		t.Errorf("mean press factor at 0.5us = %v, want in [3,8]", mean05)
	}
	if mean2 < 8 || mean2 > 20 {
		t.Errorf("mean press factor at 2us = %v, want in [8,20]", mean2)
	}
}

func TestHCFirstAtDecreasesWithOnTime(t *testing.T) {
	m := testModel()
	for row := 0; row < 50; row++ {
		base := m.HCFirstAt(0, row, 36)
		mid := m.HCFirstAt(0, row, 500)
		long := m.HCFirstAt(0, row, 2000)
		if !(long < mid && mid < base) {
			t.Fatalf("row %d: HCfirst not decreasing with on-time: %v %v %v", row, base, mid, long)
		}
	}
}

func TestAccumulatorMatchesAnalytic(t *testing.T) {
	// Hammering a victim's two neighbours HC times each (one pair = one
	// hammer) at reference on-time must accumulate exactly HC effective
	// hammers, and the first flip must appear exactly at HCfirst.
	m := testModel()
	const bank = 2
	victim := 700
	if !m.Geom.SameSubarray(victim-1, victim+1) {
		t.Skip("victim not interior to a subarray in this layout")
	}
	hcf := m.HCFirst(bank, victim)
	pairs := int(hcf) // hammer up to just below threshold
	for i := 0; i < pairs; i++ {
		m.RowClosed(bank, victim-1, 36)
		m.RowClosed(bank, victim+1, 36)
	}
	acc := m.Accumulated(bank, victim)
	if math.Abs(acc-float64(pairs)) > 1e-6 {
		t.Fatalf("accumulated = %v after %d pairs", acc, pairs)
	}
	if m.WouldFlip(bank, victim) {
		t.Fatalf("row flipped below HCfirst: acc=%v hcf=%v", acc, hcf)
	}
	// One more hammer crosses the threshold.
	m.RowClosed(bank, victim-1, 36)
	m.RowClosed(bank, victim+1, 36)
	if !m.WouldFlip(bank, victim) {
		t.Fatalf("row did not flip at HCfirst: acc=%v hcf=%v", m.Accumulated(bank, victim), hcf)
	}
	if n := m.FlipCount(bank, victim, m.WCDP(bank, victim)); n < 1 {
		t.Errorf("FlipCount = %d at threshold", n)
	}
}

func TestRestoreResetsAccumulator(t *testing.T) {
	m := testModel()
	m.RowClosed(0, 100, 36)
	if m.Accumulated(0, 101) == 0 {
		t.Fatal("no disturbance accrued")
	}
	m.RowRestored(0, 101)
	if m.Accumulated(0, 101) != 0 {
		t.Error("restore did not reset accumulator")
	}
}

func TestSubarrayIsolation(t *testing.T) {
	m := testModel()
	starts := m.Geom.SubarrayStarts()
	if len(starts) < 2 {
		t.Skip("need at least two subarrays")
	}
	boundary := starts[1] // first row of subarray 1
	// Hammer the last row of subarray 0: the row across the boundary
	// must receive nothing.
	m.RowClosed(0, boundary-1, 36)
	if m.Accumulated(0, boundary) != 0 {
		t.Error("disturbance crossed a subarray boundary")
	}
	if m.Accumulated(0, boundary-2) == 0 {
		t.Error("intra-subarray neighbour received nothing")
	}
}

func TestBlastRadiusDecay(t *testing.T) {
	m := testModel()
	row := 1000
	m.RowClosed(0, row, 36)
	d1 := m.Accumulated(0, row+1)
	d2 := m.Accumulated(0, row+2)
	if d1 != 0.5 {
		t.Errorf("distance-1 contribution = %v, want 0.5", d1)
	}
	want := 0.5 * m.P.BlastDecay
	if math.Abs(d2-want) > 1e-12 {
		t.Errorf("distance-2 contribution = %v, want %v", d2, want)
	}
}

func TestFlipPositionsPrefixProperty(t *testing.T) {
	m := testModel()
	p5 := m.FlipPositions(0, 9, 5)
	p9 := m.FlipPositions(0, 9, 9)
	if len(p5) != 5 || len(p9) != 9 {
		t.Fatalf("lengths: %d, %d", len(p5), len(p9))
	}
	for i := range p5 {
		if p5[i] != p9[i] {
			t.Fatal("flip positions are not a stable prefix sequence")
		}
	}
	seen := map[int]bool{}
	for _, c := range p9 {
		if c < 0 || c >= m.Geom.CellsPerRow {
			t.Fatalf("cell index out of range: %d", c)
		}
		if seen[c] {
			t.Fatal("duplicate flip position")
		}
		seen[c] = true
	}
}

func TestAgingOnlyWeakensAndOnlyWeakRows(t *testing.T) {
	m := testModel()
	aged := NewModel(DefaultParams(99), testGeom())
	aged.AgingDays = 68
	levels := HammerLevels()
	degraded := 0
	for bank := 0; bank < 2; bank++ {
		for row := 0; row < 2048; row++ {
			before := m.HCFirst(bank, row)
			after := aged.HCFirst(bank, row)
			if after > before {
				t.Fatalf("aging strengthened row %d: %v -> %v", row, before, after)
			}
			qb, okb := Quantize(levels, before)
			qa, oka := Quantize(levels, after)
			if okb && oka && qa < qb {
				degraded++
				// Exactly one level down.
				if LevelIndex(levels, before)-LevelIndex(levels, after) != 1 {
					t.Fatalf("row %d degraded more than one level: %v -> %v", row, qb, qa)
				}
				// Strong rows (96K+) never degrade (Obsv. 13).
				if qb >= 96*K {
					t.Fatalf("strong row %d degraded", row)
				}
			}
		}
	}
	if degraded == 0 {
		t.Error("aging degraded no rows at all")
	}
}

func TestTemperatureEffectSmall(t *testing.T) {
	// §4.3: < 0.5% BER variation between 50°C and 80°C.
	m := testModel()
	m.TempC = 80
	b80 := m.BERAt(0, 42, 128*K, 36, m.WCDP(0, 42))
	m.TempC = 50
	b50 := m.BERAt(0, 42, 128*K, 36, m.WCDP(0, 42))
	if b80 == 0 {
		t.Skip("row too strong for BER comparison")
	}
	if rel := math.Abs(b80-b50) / b80; rel > 0.05 {
		t.Errorf("temperature effect too large: %v", rel)
	}
}

func TestQuickHCFirstPositiveFinite(t *testing.T) {
	m := testModel()
	f := func(bank uint8, row uint16) bool {
		b := int(bank) % m.Geom.Banks()
		r := int(row) % m.Geom.RowsPerBank
		v := m.HCFirst(b, r)
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoupleBounded(t *testing.T) {
	m := testModel()
	f := func(bank uint8, row uint16, p uint8) bool {
		b := int(bank) % m.Geom.Banks()
		r := int(row) % m.Geom.RowsPerBank
		pat := dram.Pattern(int(p) % dram.NumPatterns)
		c := m.Couple(b, r, pat)
		return c > 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickBERAtMonotoneInHC(t *testing.T) {
	m := testModel()
	f := func(row uint16, a, b uint32) bool {
		r := int(row) % m.Geom.RowsPerBank
		ha, hb := float64(a%(256*K)), float64(b%(256*K))
		if ha > hb {
			ha, hb = hb, ha
		}
		pat := m.WCDP(0, r)
		return m.BERAt(0, r, ha, 36, pat) <= m.BERAt(0, r, hb, 36, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStructuredTermsShiftHCFirst(t *testing.T) {
	p := DefaultParams(5)
	p.Struct = []StructTerm{{Kind: RowBit, Bit: 0, Amp: 2.0}}
	g := testGeom()
	m := NewModel(p, g)
	// Rows with bit0 set must be systematically weaker.
	var even, odd float64
	for row := 0; row < 1000; row++ {
		v := m.LnHCFirst(0, row)
		if row&1 == 1 {
			odd += v
		} else {
			even += v
		}
	}
	if odd/500 >= even/500 {
		t.Error("RowBit structured term did not weaken bit-set rows")
	}
}

// modelVariants are the testModel settings the bank-at-a-time form and
// the model digest are checked under: with and without the bank jitter,
// the HCfirst cap, structured terms and aging.
var modelVariants = []struct {
	name string
	set  func(m *Model)
}{
	{"default", func(m *Model) {}},
	{"no-jitter", func(m *Model) { m.P.BankJitter = 0 }},
	{"capped", func(m *Model) { m.P.CapHC = 60 * K }},
	{"struct", func(m *Model) {
		m.P.Struct = []StructTerm{{Kind: SubarrayBit, Bit: 1, Amp: 0.5}, {Kind: DistanceBit, Bit: 2, Amp: 0.3}}
	}},
	{"aged", func(m *Model) { m.AgingDays = 68 }},
}

// TestHCFirstBankMatchesPointQuery: the bank-at-a-time form is the point
// query bit for bit, strided or not, under every model variant.
func TestHCFirstBankMatchesPointQuery(t *testing.T) {
	for _, v := range modelVariants {
		m := testModel()
		v.set(m)
		for _, stride := range []int{1, 3} {
			reg := m.RegularRows(stride)
			if want := (m.Geom.RowsPerBank + stride - 1) / stride; len(reg) != want {
				t.Fatalf("%s: RegularRows(%d) has %d rows, want %d", v.name, stride, len(reg), want)
			}
			dst := make([]float64, len(reg))
			for bank := 0; bank < m.Geom.Banks(); bank++ {
				m.HCFirstBank(dst, reg, bank, stride)
				for i, got := range dst {
					if want := m.HCFirst(bank, i*stride); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s stride %d bank %d row %d: HCFirstBank %v, HCFirst %v", v.name, stride, bank, i*stride, got, want)
					}
				}
			}
		}
	}
}

// modelDigest is the SHA-256 of the float64 bits of HCFirst then
// PressPsi for every (bank, row) of testGeom, bank-major, under each of
// modelVariants in turn. It moves with any reordering of the float
// operations that compose a row's HCfirst, which the simulator's module
// tables and the profile inherit; only a results-changing model change
// re-records it.
const modelDigest = "9bfa5bbae030786569c76b1e645b092e802923f6fbee63d50afb8f17a56097f3"

func TestModelPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range modelVariants {
		m := testModel()
		v.set(m)
		for bank := 0; bank < m.Geom.Banks(); bank++ {
			for row := 0; row < m.Geom.RowsPerBank; row++ {
				put(m.HCFirst(bank, row))
				put(m.PressPsi(bank, row))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != modelDigest {
		t.Fatalf("HCFirst/PressPsi digest %s, want %s", got, modelDigest)
	}
}
