// Package reveng implements the paper's reverse engineering analyses:
// recovery of the physical row order behind the in-DRAM address
// scrambling, subarray boundary identification from single-sided
// disturbance footprints (k-means + silhouette, Key Insight 1) with
// RowClone cross-validation (Key Insight 2), and the spatial-feature
// correlation analysis (per-bit HCfirst prediction scored by F1).
package reveng

import (
	"svard/internal/dram"
	"svard/internal/rng"
	"svard/internal/stats"
	"svard/internal/testbench"
)

// AnalyticFootprints returns, for every physical row, how many
// distance-1 victims single-sided hammering that row would affect: 2 for
// interior rows, 1 at subarray (and bank) edges. This is the ground
// truth the measured footprints converge to.
func AnalyticFootprints(g *dram.Geometry) []int {
	fp := make([]int, g.RowsPerBank)
	for r := range fp {
		n := 0
		if r-1 >= 0 && g.SameSubarray(r, r-1) {
			n++
		}
		if r+1 < g.RowsPerBank && g.SameSubarray(r, r+1) {
			n++
		}
		fp[r] = n
	}
	return fp
}

// MeasureFootprint hammers one physical row single-sided and counts its
// flipped distance-1 victims: its distance-1 footprint. acts must be
// large enough to flip the row's neighbours.
func MeasureFootprint(b *testbench.Bench, bank, phys, acts int, tAggOnNs float64) (int, error) {
	logical := b.Dev.Map.PhysicalToLogical(phys)
	victims, err := b.SingleSidedFootprint(bank, logical, acts, tAggOnNs)
	if err != nil {
		return 0, err
	}
	// Distance-1 victims flip orders of magnitude more cells than
	// distance-2 bystanders; with the bench's boolean victim report the
	// distance-1 count is the number of immediate neighbours among the
	// flipped rows.
	n := 0
	for _, v := range victims {
		if v == phys-1 || v == phys+1 {
			n++
		}
	}
	return n, nil
}

// OrdinalsFromFootprints converts a per-physical-row footprint vector
// into per-row subarray ordinals: a new subarray starts after each
// adjacent pair of footprint-1 rows (the last row of one subarray and
// the first row of the next).
func OrdinalsFromFootprints(fp []int) []int {
	ord := make([]int, len(fp))
	cur := 0
	for r := range fp {
		if r > 0 && fp[r-1] == 1 && fp[r] == 1 {
			cur++
		}
		ord[r] = cur
	}
	return ord
}

// BoundariesFromFootprints returns the candidate subarray start rows
// (always including row 0) implied by a footprint vector.
func BoundariesFromFootprints(fp []int) []int {
	starts := []int{0}
	for r := 1; r < len(fp); r++ {
		if fp[r-1] == 1 && fp[r] == 1 {
			starts = append(starts, r)
		}
	}
	return starts
}

// SilhouettePoint is one (k, score) sample of the Fig. 8 sweep.
type SilhouettePoint struct {
	K     int
	Score float64
}

// SubarraySilhouetteSweep clusters rows into k subarrays for each k in
// ks, scoring each clustering with the silhouette; the best k estimates
// the subarray count (Fig. 8). Rows are embedded as (normalized row
// address, scaled footprint ordinal), the features Key Insight 1 names.
func SubarraySilhouetteSweep(fp []int, ks []int, seed uint64) ([]SilhouettePoint, int) {
	ords := OrdinalsFromFootprints(fp)
	maxOrd := ords[len(ords)-1]
	if maxOrd == 0 {
		maxOrd = 1
	}
	n := len(fp)
	points := make([][]float64, n)
	for r := range points {
		points[r] = []float64{
			float64(r) / float64(n-1),
			3 * float64(ords[r]) / float64(maxOrd),
		}
	}
	out := make([]SilhouettePoint, 0, len(ks))
	bestK, bestScore := 0, -2.0
	for _, k := range ks {
		res := stats.KMeans(points, k, 30, rng.At(seed, uint64(k)))
		score := stats.Silhouette(points, res)
		out = append(out, SilhouettePoint{K: k, Score: score})
		if score > bestScore {
			bestK, bestScore = k, score
		}
	}
	return out, bestK
}

// ValidateBoundaries cross-checks candidate subarray boundaries with
// RowClone probes (Key Insight 2): a successful clone across a candidate
// boundary proves both rows share a subarray, invalidating the
// candidate. probes pairs are tried per boundary; failed clones prove
// nothing (RowClone is unreliable even within a subarray), so a
// candidate survives unless some probe succeeds.
func ValidateBoundaries(b *testbench.Bench, bank int, candidates []int, probes int) ([]int, error) {
	g := b.Dev.Geom
	var surviving []int
	for _, start := range candidates {
		if start == 0 {
			surviving = append(surviving, 0) // bank edge, trivially a boundary
			continue
		}
		invalidated := false
		for p := 0; p < probes && !invalidated; p++ {
			srcPhys := start - 1 - p
			dstPhys := start + p
			if srcPhys < 0 || dstPhys >= g.RowsPerBank {
				break
			}
			ok, err := b.RowCloneSucceeds(bank,
				b.Dev.Map.PhysicalToLogical(srcPhys),
				b.Dev.Map.PhysicalToLogical(dstPhys))
			if err != nil {
				return nil, err
			}
			if ok {
				invalidated = true
			}
		}
		if !invalidated {
			surviving = append(surviving, start)
		}
	}
	return surviving, nil
}
