package campaign

import (
	"context"
	"reflect"
	"testing"

	"svard/internal/cache"
	"svard/internal/cache/keycount"
	"svard/internal/population"
	"svard/internal/sim"
)

// TestPlan pins the one derivation every route reads, over the five
// campaign kinds: the plan's job list is the sweeps' own expansion (built
// here straight from internal/sim, so "what the plan sized and journaled"
// cannot drift from "what the sweep runs"), its spec is the normalized
// spec, its fingerprint is the spec's, the frozen readers agree with it,
// planning a plan's spec again changes nothing, and the count the
// expansion cap checks is the plan's length. Every spec the
// Validate tests reject is rejected by Plan with the same message.
func TestPlan(t *testing.T) {
	golden, _ := goldenSpec(t)
	fig12 := func(s Spec) []sim.Job {
		return sim.Fig12Jobs(sim.Fig12Options{Base: s.Base, Mixes: s.Mixes, NRHs: s.NRHs,
			Defenses: s.Defenses, Profiles: s.Profiles, Backends: s.Backends})
	}
	must := func(jobs []sim.Job, err error) []sim.Job {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}

	twoBackends := golden
	twoBackends.Backends = []string{"ddr4-3200", "hbm2"}
	bothFigures := tinySpec()
	bothFigures.Figures = nil // the default: fig12 then fig13
	defaults := bothFigures
	defaults.NRHs, defaults.Defenses, defaults.Profiles = nil, nil, nil
	pop, erosion := tinyPopulationSpec(), tinyTemporalSpec()

	for _, tc := range []struct {
		name string
		spec Spec
		want []sim.Job
	}{
		{"point", golden, fig12(golden)},
		{"multi-backend", twoBackends, fig12(twoBackends)},
		{"fig13", bothFigures, append(fig12(bothFigures), must(sim.Fig13Jobs(sim.Fig13Options{
			Base: bothFigures.Base, Benign: bothFigures.Benign, Profiles: bothFigures.Profiles}))...)},
		{"defaults", defaults, append(fig12(defaults), must(sim.Fig13Jobs(sim.Fig13Options{
			Base: defaults.Base, Benign: defaults.Benign}))...)},
		{"population", pop, must(sim.PopulationJobs(sim.PopulationOptions{
			Base: pop.Base, Population: population.Ref{Seed: pop.Population.Seed, Size: pop.Population.Size},
			Mixes: pop.Mixes, NRHs: pop.NRHs, Defenses: pop.Defenses}))},
		{"temporal", erosion, must(sim.ErosionJobs(sim.ErosionOptions{
			Base: erosion.Base, Process: erosion.Temporal.Process, Intervals: erosion.Temporal.Intervals,
			Mixes: erosion.Mixes, NRHs: erosion.NRHs, Defenses: erosion.Defenses}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := tc.spec.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan.Jobs, tc.want) {
				t.Errorf("plan lists %d jobs, the sweeps expand to %d (or they differ in content)", len(plan.Jobs), len(tc.want))
			}
			if n := plan.Spec.cells(); n != float64(len(plan.Jobs)) {
				t.Errorf("the expansion cap counts %v cells, the plan lists %d", n, len(plan.Jobs))
			}
			if jobs := must(tc.spec.Jobs()); !reflect.DeepEqual(jobs, plan.Jobs) {
				t.Error("Spec.Jobs disagrees with the plan")
			}
			if fp := tc.spec.Fingerprint(); plan.Fingerprint != fp {
				t.Errorf("plan fingerprint %s, Spec.Fingerprint %s", plan.Fingerprint, fp)
			}
			if !reflect.DeepEqual(plan.Spec, tc.spec.Normalized()) {
				t.Errorf("plan spec is not the normalized spec:\ngot  %+v\nwant %+v", plan.Spec, tc.spec.Normalized())
			}
			if again, err := plan.Spec.Plan(); err != nil || !reflect.DeepEqual(again, plan) {
				t.Errorf("planning the plan's own spec (a -print-spec round trip) changed it (err %v)", err)
			}
		})
	}

	plan := func(s Spec) error {
		p, err := s.Plan()
		if err != nil && !reflect.DeepEqual(p, Plan{}) {
			t.Error("Plan returned a plan next to its error")
		}
		return err
	}
	t.Run("rejects-point", func(t *testing.T) { checkRejections(t, tinySpec, brokenSpecs, plan) })
	t.Run("rejects-population", func(t *testing.T) { checkRejections(t, tinyPopulationSpec, brokenPopulationSpecs, plan) })
	t.Run("rejects-temporal", func(t *testing.T) { checkRejections(t, tinyTemporalSpec, brokenTemporalSpecs, plan) })
}

// TestWarmCellDerivesOneKey states "derived once" with no hook in
// production code: a warm pass over a memory store runs cache.Key exactly
// once per cell (a second derivation anywhere on the path — journal,
// trace, Observe — would double the count). keycount reads the number
// off the runtime's memory profile.
func TestWarmCellDerivesOneKey(t *testing.T) {
	spec := tinySpec()
	spec.Figures = []string{Fig12}
	spec.NRHs, spec.Defenses = nil, nil // the default grid: 1 + 5*7*2 cells
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: newStore(t, ""), Workers: 1, Sim: fakeSim, Observe: func(sim.Config, string) {}}
	pass := func() {
		if _, err := eng.RunCtx(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	pass() // cold: every later pass is served

	one := keycount.During(func() { cache.Key(plan.Jobs[0].Config) })
	got, want := keycount.During(pass), one*int64(len(plan.Jobs))
	if one < 1 || got != want {
		t.Errorf("a warm pass over %d cells allocates %d objects inside cache.Key, want %d (%d per derivation)",
			len(plan.Jobs), got, want, one)
	}
}
