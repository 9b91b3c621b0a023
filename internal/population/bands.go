package population

import (
	"math"
	"slices"
)

// Band summarizes one metric's distribution over a module population:
// exact mean/min/max plus the p5/p50/p95 confidence band.
type Band struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P5   float64 `json:"p5"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// BandOf summarizes values, one per module in module order. The mean is
// summed in that order; the quantiles are the nearest-rank order
// statistics of a sorted copy — the ceil(q*n)-th smallest value, rank
// clamped into [1, n] — so they do not depend on the order at all. No
// values give the zero Band.
func BandOf(values []float64) Band {
	n := len(values)
	if n == 0 {
		return Band{}
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	rank := func(q float64) float64 {
		r := min(max(int(math.Ceil(q*float64(n))), 1), n)
		return sorted[r-1]
	}
	return Band{
		N:    n,
		Mean: sum / float64(n),
		Min:  sorted[0],
		Max:  sorted[n-1],
		P5:   rank(0.05),
		P50:  rank(0.50),
		P95:  rank(0.95),
	}
}
