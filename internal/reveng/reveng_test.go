package reveng

import (
	"testing"

	"svard/internal/disturb"
	"svard/internal/dram"
	"svard/internal/testbench"
)

func smallBench(t *testing.T, rows, scrambleOps int, seed uint64) (*testbench.Bench, *disturb.Model) {
	t.Helper()
	g := &dram.Geometry{BankGroups: 2, BanksPerGroup: 2, RowsPerBank: rows, CellsPerRow: 4096}
	g.BuildSubarrays(seed, rows/8, rows/4)
	model := disturb.NewModel(disturb.DefaultParams(seed), g)
	var mapping dram.RowMapping = dram.IdentityMapping{}
	if scrambleOps > 0 {
		mapping = dram.NewScrambleMapping(seed, rows, scrambleOps)
	}
	dev, err := dram.NewDevice(g, dram.DDR4Timing(3200), mapping, model)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetSeed(seed)
	b := testbench.New(dev, model)
	b.EnforceBudget = false // reverse engineering uses long runs
	return b, model
}

func TestAnalyticFootprints(t *testing.T) {
	g := &dram.Geometry{BankGroups: 1, BanksPerGroup: 1, RowsPerBank: 100, CellsPerRow: 64}
	g.SetSubarrayStarts([]int{0, 50})
	fp := AnalyticFootprints(g)
	for _, r := range []int{0, 49, 50, 99} {
		if fp[r] != 1 {
			t.Errorf("edge row %d footprint = %d, want 1", r, fp[r])
		}
	}
	for _, r := range []int{1, 25, 51, 98} {
		if fp[r] != 2 {
			t.Errorf("interior row %d footprint = %d, want 2", r, fp[r])
		}
	}
}

func TestOrdinalsAndBoundaries(t *testing.T) {
	g := &dram.Geometry{BankGroups: 1, BanksPerGroup: 1, RowsPerBank: 120, CellsPerRow: 64}
	g.SetSubarrayStarts([]int{0, 40, 80})
	fp := AnalyticFootprints(g)
	ords := OrdinalsFromFootprints(fp)
	if ords[0] != 0 || ords[39] != 0 || ords[40] != 1 || ords[79] != 1 || ords[80] != 2 {
		t.Errorf("ordinals wrong: %v %v %v %v %v", ords[0], ords[39], ords[40], ords[79], ords[80])
	}
	starts := BoundariesFromFootprints(fp)
	want := []int{0, 40, 80}
	if len(starts) != len(want) {
		t.Fatalf("boundaries = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", starts, want)
		}
	}
}

func TestMeasuredFootprintsMatchAnalytic(t *testing.T) {
	b, model := smallBench(t, 256, 0, 5)
	g := b.Dev.Geom
	truth := AnalyticFootprints(g)
	// Enough activations to flip any neighbour: ~4x the strongest
	// HCfirst in effective hammers (single-sided halves the rate).
	acts := 8 * 1024 * 1024
	_ = model
	for _, phys := range []int{0, 1, 100, g.SubarrayStarts()[1] - 1, g.SubarrayStarts()[1], 255} {
		got, err := MeasureFootprint(b, 0, phys, acts, 36)
		if err != nil {
			t.Fatal(err)
		}
		if got != truth[phys] {
			t.Errorf("row %d footprint = %d, want %d", phys, got, truth[phys])
		}
	}
}

func TestSilhouettePeaksAtTrueSubarrayCount(t *testing.T) {
	g := &dram.Geometry{BankGroups: 1, BanksPerGroup: 1, RowsPerBank: 1200, CellsPerRow: 64}
	g.BuildSubarrays(9, 140, 220)
	truth := g.Subarrays()
	fp := AnalyticFootprints(g)
	var ks []int
	for k := 2; k <= truth+5; k++ {
		ks = append(ks, k)
	}
	curve, best := SubarraySilhouetteSweep(fp, ks, 77)
	if best != truth {
		t.Errorf("silhouette best k = %d, want %d (curve %v)", best, truth, curve)
	}
	// The paper observes monotone decay past the peak; allow slight
	// noise but demand a clear drop by the end.
	var peak, last float64
	for _, p := range curve {
		if p.K == best {
			peak = p.Score
		}
		last = p.Score
	}
	if last >= peak {
		t.Errorf("silhouette does not decay past the peak: peak=%v last=%v", peak, last)
	}
}

func TestValidateBoundariesKeepsTrueOnes(t *testing.T) {
	b, _ := smallBench(t, 256, 0, 6)
	g := b.Dev.Geom
	truth := g.SubarrayStarts()
	fp := AnalyticFootprints(g)
	candidates := BoundariesFromFootprints(fp)
	surviving, err := ValidateBoundaries(b, 0, candidates, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(surviving) != len(truth) {
		t.Fatalf("surviving = %v, truth = %v", surviving, truth)
	}
	for i := range truth {
		if surviving[i] != truth[i] {
			t.Fatalf("surviving = %v, truth = %v", surviving, truth)
		}
	}
}

func TestValidateBoundariesRejectsFalseOnes(t *testing.T) {
	b, _ := smallBench(t, 256, 0, 7)
	g := b.Dev.Geom
	// Inject a false candidate in the middle of subarray 0.
	s0, e0 := g.SubarrayBounds(0)
	false1 := (s0 + e0) / 2
	surviving, err := ValidateBoundaries(b, 0, []int{0, false1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range surviving {
		if s == false1 {
			t.Errorf("false boundary %d survived RowClone validation", false1)
		}
	}
}

func TestRecoverPhysicalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("O(rows^2) reverse engineering")
	}
	b, _ := smallBench(t, 128, 6, 8)
	g := b.Dev.Geom
	chains, err := RecoverPhysicalOrder(b, 0, 4*1024*1024, 36)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != g.Subarrays() {
		t.Fatalf("recovered %d chains for %d subarrays", len(chains), g.Subarrays())
	}
	covered := 0
	for _, chain := range chains {
		if !MatchesMapping(chain, b.Dev.Map, g) {
			t.Errorf("chain of %d rows does not match a subarray's physical order", len(chain))
		}
		covered += len(chain)
	}
	if covered != g.RowsPerBank {
		t.Errorf("chains cover %d rows, want %d", covered, g.RowsPerBank)
	}
}

func TestFeatureEnumerationCoversKinds(t *testing.T) {
	g := &dram.Geometry{BankGroups: 4, BanksPerGroup: 4, RowsPerBank: 4096, CellsPerRow: 64}
	g.BuildSubarrays(3, 330, 600)
	fs := AllFeatures(g)
	kinds := map[FeatureKind]int{}
	for _, f := range fs {
		kinds[f.Kind]++
	}
	if kinds[BankBit] != 4 {
		t.Errorf("bank bits = %d, want 4", kinds[BankBit])
	}
	if kinds[RowAddrBit] != 12 {
		t.Errorf("row bits = %d, want 12", kinds[RowAddrBit])
	}
	if kinds[SubarrayIdxBit] == 0 || kinds[DistBit] == 0 {
		t.Error("missing subarray/distance features")
	}
}

// structLevels builds a level function with a planted perfect dependence
// on row bit 3 for sensitivity checks.
func structLevels(g *dram.Geometry) LevelFn {
	return func(bank, row int) int {
		if row>>3&1 == 1 {
			return 2
		}
		return 7
	}
}

func TestScoreFeaturesDetectsPlantedBit(t *testing.T) {
	g := &dram.Geometry{BankGroups: 2, BanksPerGroup: 2, RowsPerBank: 1024, CellsPerRow: 64}
	g.BuildSubarrays(4, 100, 200)
	scores := ScoreFeatures(g, []int{0, 1}, structLevels(g), 14, AllFeatures(g))
	var planted, other float64
	for _, s := range scores {
		if s.Feature.Kind == RowAddrBit && s.Feature.Bit == 3 {
			planted = s.F1
		} else if s.Feature.Kind == RowAddrBit && s.Feature.Bit == 5 {
			other = s.F1
		}
	}
	if planted < 0.99 {
		t.Errorf("planted feature F1 = %v, want ~1", planted)
	}
	if other > 0.8 {
		t.Errorf("unrelated feature F1 = %v, want below planted", other)
	}
}

func TestFractionAboveMonotone(t *testing.T) {
	scores := []FeatureScore{{F1: 0.2}, {F1: 0.5}, {F1: 0.9}}
	ths := []float64{0, 0.3, 0.6, 1}
	fr := FractionAbove(scores, ths)
	for i := 1; i < len(fr); i++ {
		if fr[i] > fr[i-1] {
			t.Errorf("fraction not monotone: %v", fr)
		}
	}
	if fr[0] != 1 || fr[3] != 0 {
		t.Errorf("endpoints wrong: %v", fr)
	}
}
