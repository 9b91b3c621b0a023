// Package stats implements the statistical substrate used by the
// characterization analyses: descriptive summaries (the box-and-whisker
// quantities of Figs. 3 and 7), coefficient of variation, histograms
// (Fig. 5), k-means clustering with silhouette scoring (Fig. 8, subarray
// reverse engineering), and confusion-matrix/F1 scoring (Fig. 9 and
// Table 3, spatial feature correlation).
package stats

import (
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample, including the
// box-and-whisker quantities used throughout the paper's figures: the box
// is bounded by Q1 and Q3, whiskers mark the central 1.5·IQR range
// (clamped to the observed extrema), and the white circle is the mean.
type Summary struct {
	N         int
	Min, Max  float64
	Mean, Std float64
	Q1        float64
	Median    float64
	Q3        float64
	IQR       float64
	WhiskLo   float64
	WhiskHi   float64
}

// CV returns the coefficient of variation: the standard deviation
// normalized to the mean. It returns 0 for an empty sample or zero mean.
func (s Summary) CV() float64 {
	if s.N == 0 || s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// Summarize computes a Summary of xs. It does not modify xs.
// An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SummarizeSorted(sorted)
}

// SummarizeSorted is Summarize for an already ascending-sorted sample.
func SummarizeSorted(sorted []float64) Summary {
	n := len(sorted)
	if n == 0 {
		return Summary{}
	}
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0 // guard against catastrophic cancellation
	}
	s := Summary{
		N:      n,
		Min:    sorted[0],
		Max:    sorted[n-1],
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Q1:     QuantileSorted(sorted, 0.25),
		Median: QuantileSorted(sorted, 0.5),
		Q3:     QuantileSorted(sorted, 0.75),
	}
	s.IQR = s.Q3 - s.Q1
	s.WhiskLo = math.Max(s.Min, s.Q1-1.5*s.IQR)
	s.WhiskHi = math.Min(s.Max, s.Q3+1.5*s.IQR)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the "type 7" estimator used by
// most plotting software). It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for an already ascending-sorted sample.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs; +Inf for an empty sample.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; -Inf for an empty sample.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Histogram counts how many values of xs fall on each of the given
// discrete levels (exact match after mapping through level index).
// Values not equal to any level are counted in Other.
type Histogram struct {
	Levels []float64
	Counts []int
	Other  int
}

// HistogramDiscrete builds a Histogram of xs over the given levels.
// The levels must be sorted ascending.
func HistogramDiscrete(xs []float64, levels []float64) Histogram {
	h := Histogram{
		Levels: append([]float64(nil), levels...),
		Counts: make([]int, len(levels)),
	}
	for _, x := range xs {
		i := sort.SearchFloat64s(h.Levels, x)
		if i < len(h.Levels) && h.Levels[i] == x {
			h.Counts[i]++
		} else {
			h.Other++
		}
	}
	return h
}

// Total returns the number of values counted on the levels (not Other).
func (h Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Fractions returns the per-level fraction of the on-level total.
func (h Histogram) Fractions() []float64 {
	t := h.Total()
	fs := make([]float64, len(h.Counts))
	if t == 0 {
		return fs
	}
	for i, c := range h.Counts {
		fs[i] = float64(c) / float64(t)
	}
	return fs
}
