package campaign

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"svard/internal/obs"
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

// TestCellLabel pins the label format the trace and the service's
// progress events share: every cell of a campaign labels distinctly —
// across the backend axis too — and a default-backend cell's label does
// not mention a backend.
func TestCellLabel(t *testing.T) {
	single, _ := goldenSpec(t)
	twoBackends := single
	twoBackends.Backends = []string{"ddr4-3200", "hbm2"}
	for name, spec := range map[string]Spec{"single": single, "two-backends": twoBackends} {
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
			if hbm := j.Config.Backend == "hbm2"; strings.HasSuffix(l, " hbm2") != hbm {
				t.Fatalf("%s: label %q of a %q cell", name, l, j.Config.Backend)
			}
		}
	}
}
