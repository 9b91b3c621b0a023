package population

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"svard/internal/profile"
)

func TestLabelRoundTrip(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		index int
	}{{1, 0}, {1, 9999}, {42, 7}, {^uint64(0), 123}} {
		label := Label(c.seed, c.index)
		seed, index, ok := ParseLabel(label)
		if !ok || seed != c.seed || index != c.index {
			t.Errorf("round trip %q -> (%d, %d, %v)", label, seed, index, ok)
		}
	}
}

func TestParseLabelRejectsAliases(t *testing.T) {
	// Non-canonical spellings would address the same module under a
	// second cache identity, so only the exact Label output parses.
	for _, bad := range []string{
		"", "pop:", "pop:1", "pop:01:2", "pop:1:02", "pop:1:-1",
		"pop:1:2:3", "pop:x:2", "pop:1:x", "S0", "pop:1:2 ",
	} {
		if _, _, ok := ParseLabel(bad); ok {
			t.Errorf("ParseLabel(%q) accepted", bad)
		}
	}
}

func TestSampleDeterministicAndOrderFree(t *testing.T) {
	m := Default()
	// Same coordinates yield the byte-identical spec no matter what was
	// sampled before: a fresh draw at (1, 5) equals a draw taken after
	// walking other indices and seeds in arbitrary order.
	want := m.Sample(1, 5)
	for _, i := range []int{9, 0, 5, 3, 5} {
		m.Sample(7, i)
		m.Sample(1, i)
	}
	got := m.Sample(1, 5)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Sample(1, 5) changed across call order:\n%+v\n%+v", want, got)
	}
	if want.Label != Label(1, 5) {
		t.Errorf("sampled label = %q, want %q", want.Label, Label(1, 5))
	}
}

func TestSampleVariesAcrossCoordinates(t *testing.T) {
	m := Default()
	a, b, c := m.Sample(1, 0), m.Sample(1, 1), m.Sample(2, 0)
	a.Label, b.Label, c.Label = "", "", ""
	if reflect.DeepEqual(a, b) {
		t.Error("adjacent indices sampled identical modules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds sampled identical modules")
	}
}

func TestSpecForLabel(t *testing.T) {
	spec, ok := SpecForLabel(Label(3, 11))
	if !ok {
		t.Fatal("population label not resolved")
	}
	if want := Default().Sample(3, 11); !reflect.DeepEqual(spec, want) {
		t.Error("SpecForLabel disagrees with Default().Sample")
	}
	if _, ok := SpecForLabel("S0"); ok {
		t.Error("Table 5 label resolved as a population module")
	}
}

func TestSampledSpecsCalibrate(t *testing.T) {
	// Every sampled module must land inside the region the disturbance
	// calibration is solvable in — the whole point of the clamps.
	for i := 0; i < 8; i++ {
		spec := Default().Sample(99, i)
		if spec.MinHC <= 0 || spec.AvgHC <= spec.MinHC || spec.MaxHC < spec.AvgHC {
			t.Fatalf("module %d: HC targets unordered: %+v", i, spec)
		}
		if spec.MaxHC > 128*k {
			t.Fatalf("module %d: MaxHC %v past the censoring grid", i, spec.MaxHC)
		}
		if _, err := profile.BuildScaled(spec, 1, 64, 64); err != nil {
			t.Fatalf("module %d (%s) does not calibrate: %v", i, spec.Label, err)
		}
	}
}

func TestFitMomentsMatchTable5(t *testing.T) {
	// The population is a generative model of Table 5: sampling a few
	// thousand modules and grouping by manufacturer must reproduce each
	// manufacturer's log-mean MinHC within a loose tolerance (clamps trim
	// the extreme tails, so exact equality is not expected).
	specs := profile.Table5()
	wantMu := map[profile.Manufacturer][]float64{}
	for _, s := range specs {
		wantMu[s.Mfr] = append(wantMu[s.Mfr], math.Log(s.MinHC))
	}
	m := Default()
	logSum := map[profile.Manufacturer]float64{}
	count := map[profile.Manufacturer]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		s := m.Sample(5, i)
		logSum[s.Mfr] += math.Log(s.MinHC)
		count[s.Mfr]++
	}
	for mfr, mus := range wantMu {
		want := 0.0
		for _, mu := range mus {
			want += mu
		}
		want /= float64(len(mus))
		if count[mfr] < n/6 {
			t.Errorf("%s: only %d of %d samples — inventory weighting broken", mfr, count[mfr], n)
			continue
		}
		got := logSum[mfr] / float64(count[mfr])
		if math.Abs(got-want) > 0.25 {
			t.Errorf("%s: sampled log-mean MinHC %.3f, fitted %.3f", mfr, got, want)
		}
	}
}

func TestFitRejectsBadInventory(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty inventory accepted")
	}
	bad := profile.Table5()[:1]
	bad[0].AvgHC = bad[0].MinHC
	if _, err := Fit(bad); err == nil {
		t.Error("unordered HC targets accepted")
	}
}

// TestAccOrderIndependent: the quantiles, min and max are order
// statistics, so any permutation of the values gives the same ones.
func TestAccOrderIndependent(t *testing.T) {
	vals := []float64{0.3, 1.7, 0.9, 1.1, 5.5, 0.3, 2.2, 1.05, 0.99, 1.01}
	rev := slices.Clone(vals)
	slices.Reverse(rev)
	fwd, bwd := BandOf(vals), BandOf(rev)
	fwd.Mean, bwd.Mean = 0, 0 // summed in the order given
	if fwd != bwd {
		t.Fatalf("bands differ by order:\n%+v\n%+v", fwd, bwd)
	}
	if vals[0] != 0.3 || vals[4] != 5.5 {
		t.Errorf("BandOf reordered its input: %v", vals)
	}
}

// TestAccBand: the quantiles are the nearest-rank values themselves.
func TestAccBand(t *testing.T) {
	vals := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i)/100) // 1.00 .. 0.01
	}
	b := BandOf(vals)
	if b.N != 100 || b.Min != 0.01 || b.Max != 1.00 {
		t.Fatalf("band shape: %+v", b)
	}
	if math.Abs(b.Mean-0.505) > 1e-9 {
		t.Errorf("mean = %v, want 0.505", b.Mean)
	}
	for _, c := range []struct{ got, want float64 }{
		{b.P5, 0.05}, {b.P50, 0.50}, {b.P95, 0.95},
	} {
		if c.got != c.want {
			t.Errorf("quantile = %v, want exactly %v", c.got, c.want)
		}
	}
}

// TestAccClampsOutliers: a value far outside any speedup's range keeps
// its exact rank — of -3 and 100, 100 is the P95 itself, and -3 the P5
// and P50.
func TestAccClampsOutliers(t *testing.T) {
	b := BandOf([]float64{100, -3})
	if b.Min != -3 || b.Max != 100 || b.P5 != -3 || b.P50 != -3 || b.P95 != 100 {
		t.Errorf("band of -3 and 100 = %+v", b)
	}
}

func TestAccEmpty(t *testing.T) {
	if b := BandOf(nil); b != (Band{}) {
		t.Errorf("band of no values = %+v, want zero", b)
	}
}
