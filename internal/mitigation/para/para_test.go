package para

import (
	"math"
	"testing"

	"svard/internal/core"
	"svard/internal/mitigation"
)

func TestProbabilityMonotone(t *testing.T) {
	prev := 2.0
	for _, b := range []float64{16, 64, 256, 1024, 4096, 65536} {
		p := Probability(b)
		if p <= 0 || p > 1 {
			t.Fatalf("p(%v) = %v", b, p)
		}
		if p > prev {
			t.Fatalf("probability not non-increasing at %v", b)
		}
		prev = p
	}
}

func TestDirectivesAreRefreshes(t *testing.T) {
	si := mitigation.SystemInfo{Banks: 2, RowsPerBank: 1024, REFWCycles: 1 << 20, Seed: 1}
	d := New(si, core.Fixed(32)) // p = 1: refresh on every ACT
	out := d.OnActivate(0, 100, 0)
	if len(out) == 0 {
		t.Fatal("p=1 PARA produced no refresh")
	}
	for _, dir := range out {
		if dir.Kind != mitigation.RefreshVictim {
			t.Error("PARA may only refresh")
		}
		if dir.Row == 100 || dir.Row < 98 || dir.Row > 102 {
			t.Errorf("refresh outside the blast radius: %d", dir.Row)
		}
	}
}

// TestFirstRefreshIsGeometric is PARA's closed-form oracle: each ACT of a
// mid-bank row refreshes with probability p = Probability(budget),
// independently, so the number of ACTs up to and including the first
// that returns a directive is geometric with mean 1/p and standard
// deviation √(1−p)/p. Over 2 000 seeded instances the sample mean must
// lie within four standard errors of 1/p.
func TestFirstRefreshIsGeometric(t *testing.T) {
	const instances = 2000
	si := mitigation.SystemInfo{Banks: 1, RowsPerBank: 1024, REFWCycles: 1 << 20}
	for _, budget := range []float64{64, 1024} {
		p := Probability(budget)
		sum := 0.0
		for seed := range uint64(instances) {
			si.Seed = seed
			d := New(si, core.Fixed(budget))
			n := 1
			for d.OnActivate(0, si.RowsPerBank/2, uint64(n)) == nil {
				n++
			}
			sum += float64(n)
		}
		mean, want := sum/instances, 1/p
		se := math.Sqrt(1-p) / p / math.Sqrt(instances)
		if math.Abs(mean-want) > 4*se {
			t.Errorf("budget %v: mean ACTs to the first refresh %.3f, want 1/p = %.3f ± %.3f (4 SE)", budget, mean, want, 4*se)
		}
		t.Logf("budget %v: p %.4f, mean %.3f, 1/p %.3f, SE %.3f", budget, p, mean, want, se)
	}
}
