package campaign

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"svard/internal/obs"
	"svard/internal/temporal"
)

// TestCampaignTraceRidesAlong is the campaign-level flight-recorder
// contract: with Engine.Trace attached, the swept cells stay
// bit-identical to the golden fixture, every cell lands in the trace
// with the right cache outcome, and the emitted trace_event JSON
// parses and validates.
func TestCampaignTraceRidesAlong(t *testing.T) {
	spec, golden := goldenSpec(t)
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t, t.TempDir())

	cold := obs.NewTrace()
	eng := &Engine{Store: store, Workers: 4, Trace: cold}
	out, err := eng.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Fig12, golden) {
		t.Fatal("traced cold campaign cells differ from golden fixture")
	}
	if cold.Len() != len(jobs) {
		t.Fatalf("trace retained %d cells, want %d", cold.Len(), len(jobs))
	}
	tot := cold.Totals()
	if tot.CellsComputed != uint64(len(jobs)) || tot.CellsServed != 0 {
		t.Errorf("cold totals: computed=%d served=%d, want %d/0", tot.CellsComputed, tot.CellsServed, len(jobs))
	}
	if tot.Ticks == 0 || tot.SkipJumps == 0 {
		t.Errorf("cold totals recorded no engine work: %+v", tot.EngineCounters)
	}
	for _, c := range cold.Cells() {
		if c.Outcome != "computed" || c.Err != "" {
			t.Fatalf("cold cell %q: outcome=%q err=%q", c.Label, c.Outcome, c.Err)
		}
		if c.Label == "" || len(c.Key) != 64 {
			t.Fatalf("cell identity incomplete: label=%q key=%q", c.Label, c.Key)
		}
		for _, p := range []obs.Phase{obs.PhaseWait, obs.PhaseLookup, obs.PhaseBuild, obs.PhaseRun} {
			if !c.Phases[p].Valid() {
				t.Fatalf("cell %q: phase %s incomplete", c.Label, p)
			}
		}
	}

	var buf bytes.Buffer
	if err := cold.Write(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := obs.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("campaign trace does not validate: %v", err)
	}
	if got := len(f.CellSummaries()); got != len(jobs) {
		t.Fatalf("trace JSON has %d cell summaries, want %d", got, len(jobs))
	}

	// Warm re-run: all cells served from cache, still bit-identical,
	// and the serve path stamps a lookup-only timeline.
	warm := obs.NewTrace()
	eng.Trace = warm
	out, err = eng.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Fig12, golden) {
		t.Fatal("traced warm campaign cells differ from golden fixture")
	}
	wtot := warm.Totals()
	if wtot.CellsServed != uint64(len(jobs)) || wtot.CellsComputed != 0 {
		t.Errorf("warm totals: computed=%d served=%d, want 0/%d", wtot.CellsComputed, wtot.CellsServed, len(jobs))
	}
	if wtot.Ticks != 0 {
		t.Errorf("served cells must not report sim ticks, got %d", wtot.Ticks)
	}
	for _, c := range warm.Cells() {
		if c.Outcome != "served" {
			t.Fatalf("warm cell %q: outcome=%q", c.Label, c.Outcome)
		}
		if !c.Phases[obs.PhaseLookup].Valid() {
			t.Fatalf("warm cell %q: lookup phase incomplete", c.Label)
		}
		if c.Phases[obs.PhaseRun].Valid() {
			t.Fatalf("warm cell %q: run phase stamped on a cache hit", c.Label)
		}
	}
}

// TestCellLabel pins the label format svard-sweep's progress line, the
// trace and the service's cell events share: every cell of a campaign
// labels distinctly — across the backend axis, a population's modules and
// an erosion sweep's legs too — a default-backend cell's label does not
// mention a backend, and only a temporal leg names an age.
func TestCellLabel(t *testing.T) {
	single, _ := goldenSpec(t)
	twoBackends := single
	twoBackends.Backends = []string{"ddr4-3200", "hbm2"}
	erosion := single
	erosion.Profiles = nil
	erosion.Temporal = &TemporalSpec{Process: temporal.Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02}}
	pop := single
	pop.Profiles = nil
	pop.Population = &PopulationSpec{Seed: 1, Size: 3}
	specs := map[string]Spec{"single": single, "two-backends": twoBackends, "erosion": erosion, "population": pop}
	labels := map[string][]string{}
	for name, spec := range specs {
		jobs, err := spec.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			l := CellLabel(j.Config)
			if l == "" || seen[l] {
				t.Fatalf("%s: cell label %q empty or duplicated", name, l)
			}
			seen[l] = true
			labels[name] = append(labels[name], l)
			if hbm := j.Config.Backend == "hbm2"; strings.HasSuffix(l, " hbm2") != hbm {
				t.Fatalf("%s: label %q of a %q cell", name, l, j.Config.Backend)
			}
			if aged := j.Config.Temporal != nil; strings.Contains(l, " age=") != aged {
				t.Fatalf("%s: label %q of a cell with Temporal %v", name, l, j.Config.Temporal)
			}
		}
	}
	// Literal labels: the format event-stream clients and trace readers
	// see, for a DDR4 cell, an hbm2 cell, a baseline and an aged leg.
	for _, c := range []struct {
		spec string
		i    int
		want string
	}{
		{"single", len(labels["single"]) - 1, "rrs nRH=64 S0 svard [lbm06,tpcc]"},
		{"two-backends", len(labels["two-backends"]) - 1, "rrs nRH=64 S0 svard [lbm06,tpcc] hbm2"},
		{"two-backends", 0, "none nRH=1024 S0 nosvard [mcf06,ycsb-a]"},
		{"erosion", len(labels["erosion"]) - 1, "rrs nRH=64 S0 svard [lbm06,tpcc] age=64"},
	} {
		if got := labels[c.spec][c.i]; got != c.want {
			t.Errorf("%s cell %d labels %q, want %q", c.spec, c.i, got, c.want)
		}
	}
}
