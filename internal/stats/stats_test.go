package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"svard/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	s := Summarize(xs)
	if s.N != 9 || s.Min != 1 || s.Max != 9 {
		t.Fatalf("bad N/Min/Max: %+v", s)
	}
	if !almostEq(s.Mean, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if !almostEq(s.Median, 5, 1e-12) {
		t.Errorf("median = %v, want 5", s.Median)
	}
	if !almostEq(s.Q1, 3, 1e-12) || !almostEq(s.Q3, 7, 1e-12) {
		t.Errorf("quartiles = %v/%v, want 3/7", s.Q1, s.Q3)
	}
	if !almostEq(s.IQR, 4, 1e-12) {
		t.Errorf("IQR = %v, want 4", s.IQR)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	if s.CV() != 0 {
		t.Errorf("empty summary CV = %v", s.CV())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Min != 42 || s.Max != 42 || s.Mean != 42 || s.Median != 42 {
		t.Errorf("single-element summary wrong: %+v", s)
	}
	if s.Std != 0 {
		t.Errorf("single-element std = %v, want 0", s.Std)
	}
}

func TestCV(t *testing.T) {
	s := Summarize([]float64{10, 10, 10, 10})
	if s.CV() != 0 {
		t.Errorf("constant sample CV = %v, want 0", s.CV())
	}
	s2 := Summarize([]float64{8, 12})
	// mean 10, std 2 → CV 0.2
	if !almostEq(s2.CV(), 0.2, 1e-9) {
		t.Errorf("CV = %v, want 0.2", s2.CV())
	}
}

func TestQuantileInterp(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); !almostEq(got, 5, 1e-12) {
		t.Errorf("Quantile(.5) = %v, want 5", got)
	}
	if got := Quantile(xs, 0.25); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Quantile(.25) = %v, want 2.5", got)
	}
	if got := Quantile(xs, 0); got != 0 {
		t.Errorf("Quantile(0) = %v, want 0", got)
	}
	if got := Quantile(xs, 1); got != 10 {
		t.Errorf("Quantile(1) = %v, want 10", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty sample should be NaN")
	}
}

func TestWhiskersClampToData(t *testing.T) {
	// Whiskers mark the central 1.5*IQR range but never extend past the
	// observed extrema.
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.WhiskLo < s.Min || s.WhiskHi > s.Max {
		t.Errorf("whiskers escape data: %+v", s)
	}
}

func TestMeans(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); !almostEq(got, 4, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestHistogramDiscrete(t *testing.T) {
	levels := []float64{1, 2, 4}
	h := HistogramDiscrete([]float64{1, 1, 2, 4, 4, 4, 3}, levels)
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 3 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Other != 1 {
		t.Errorf("other = %d, want 1", h.Other)
	}
	fs := h.Fractions()
	if !almostEq(fs[2], 0.5, 1e-12) {
		t.Errorf("fraction = %v, want 0.5", fs[2])
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	r := rng.New(1)
	var points [][]float64
	for i := 0; i < 50; i++ {
		points = append(points, []float64{r.NormFloat64() * 0.1})
	}
	for i := 0; i < 50; i++ {
		points = append(points, []float64{10 + r.NormFloat64()*0.1})
	}
	res := KMeans(points, 2, 50, rng.New(2))
	// All of the first 50 must share a cluster, all of the last 50 the other.
	first := res.Assignment[0]
	for i := 1; i < 50; i++ {
		if res.Assignment[i] != first {
			t.Fatalf("cluster split within group A at %d", i)
		}
	}
	second := res.Assignment[50]
	if second == first {
		t.Fatal("two well-separated groups assigned the same cluster")
	}
	for i := 51; i < 100; i++ {
		if res.Assignment[i] != second {
			t.Fatalf("cluster split within group B at %d", i)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	res := KMeans(nil, 3, 10, rng.New(1))
	if len(res.Assignment) != 0 {
		t.Error("empty input should yield empty assignment")
	}
	pts := [][]float64{{1}, {2}}
	res = KMeans(pts, 5, 10, rng.New(1)) // k > n clamps to n
	if len(res.Assignment) != 2 {
		t.Error("k > n should still assign all points")
	}
}

func TestSilhouettePeaksAtTrueK(t *testing.T) {
	// Three well-separated 1-D clusters: silhouette at k=3 should beat
	// k=2 and k=6.
	r := rng.New(3)
	var points [][]float64
	for _, center := range []float64{0, 100, 200} {
		for i := 0; i < 60; i++ {
			points = append(points, []float64{center + r.NormFloat64()})
		}
	}
	score := func(k int) float64 {
		res := KMeans(points, k, 60, rng.New(4))
		return Silhouette(points, res)
	}
	s2, s3, s6 := score(2), score(3), score(6)
	if s3 <= s2 || s3 <= s6 {
		t.Errorf("silhouette did not peak at true k: s2=%v s3=%v s6=%v", s2, s3, s6)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	pts := [][]float64{{1}, {2}}
	if got := Silhouette(pts, KMeansResult{K: 1}); got != 0 {
		t.Errorf("k=1 silhouette = %v, want 0", got)
	}
	if got := Silhouette(nil, KMeansResult{K: 3}); got != 0 {
		t.Errorf("empty silhouette = %v, want 0", got)
	}
}

func TestConfusionMatrixPerfect(t *testing.T) {
	m := NewConfusionMatrix(3)
	for c := 0; c < 3; c++ {
		for i := 0; i < 10; i++ {
			m.Add(c, c)
		}
	}
	if got := m.F1(); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect F1 = %v, want 1", got)
	}
}

func TestConfusionMatrixKnown(t *testing.T) {
	// Binary case with known precision/recall.
	m := NewConfusionMatrix(2)
	// class 1: tp=8, fn=2, fp=4.
	for i := 0; i < 8; i++ {
		m.Add(1, 1)
	}
	for i := 0; i < 2; i++ {
		m.Add(1, 0)
	}
	for i := 0; i < 4; i++ {
		m.Add(0, 1)
	}
	for i := 0; i < 6; i++ {
		m.Add(0, 0)
	}
	// class1: p=8/12, r=8/10 → f1 = 2*(2/3)(4/5)/(2/3+4/5) = 0.727272...
	// class0: p=6/8, r=6/10 → f1 = 2*(.75)(.6)/(1.35) = 0.666666...
	want := (0.7272727272727273 + 2.0/3.0) / 2
	if got := m.F1(); !almostEq(got, want, 1e-9) {
		t.Errorf("macro F1 = %v, want %v", got, want)
	}
}

func TestConfusionMatrixIgnoresOutOfRange(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Add(-1, 0)
	m.Add(0, 7)
	if m.Total() != 0 {
		t.Errorf("out-of-range labels were counted: total=%d", m.Total())
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		sort.Float64s(xs)
		lo := QuantileSorted(xs, qa)
		hi := QuantileSorted(xs, qb)
		return lo <= hi && lo >= xs[0] && hi <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Summarize ordering invariants hold for any finite sample.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 &&
			s.Q3 <= s.Max && s.WhiskLo >= s.Min && s.WhiskHi <= s.Max &&
			s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: F1 always lies in [0, 1].
func TestQuickF1Bounded(t *testing.T) {
	f := func(pairs []uint8) bool {
		m := NewConfusionMatrix(4)
		for i := 0; i+1 < len(pairs); i += 2 {
			m.Add(int(pairs[i]%4), int(pairs[i+1]%4))
		}
		f1 := m.F1()
		return f1 >= 0 && f1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
