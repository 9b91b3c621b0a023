package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"svard/internal/cache"
	"svard/internal/cache/keycount"
	"svard/internal/campaign"
	"svard/internal/sim"
)

// gridSpec is a Fig. 12 campaign over the default defense x nRH grid for
// one mix and one profile (71 cells), for fake-simulator tests.
func gridSpec(seed uint64) campaign.Spec {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.Seed = seed
	return campaign.Spec{
		Figures:  []string{campaign.Fig12},
		Base:     base,
		Mixes:    [][]string{{"mcf06", "lbm06"}},
		Profiles: []string{"S0"},
	}
}

// waitTerminal follows a job's event stream to its end.
func waitTerminal(t *testing.T, s *Scheduler, id string) {
	t.Helper()
	for {
		_, more, err := s.Events(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if more == nil {
			return
		}
		select {
		case <-more:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never turned terminal", id)
		}
	}
}

// TestTerminalJobReleasesJobList: a job holds its plan's expanded job
// list only while a run can still read it. Done, failed and
// cancelled-while-queued jobs alike drop it when they turn terminal —
// retainJobs paper-scale plans must not stay resident — and keep
// reporting their fingerprint and size.
func TestTerminalJobReleasesJobList(t *testing.T) {
	store, err := cache.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cells park on a gate — the failing campaign's (seed 3) on its own —
	// so a job is observed live before it is let run to its end.
	park, failGate := make(chan struct{}), make(chan struct{})
	boom := errors.New("simulation blew up")
	s := newScheduler(store, func(cfg sim.Config) (sim.Result, error) {
		if cfg.Seed == 3 {
			<-failGate
			return sim.Result{}, boom
		}
		<-park
		return sim.Result{IPC: make([]float64, cfg.Cores), Finished: true}, nil
	}, 1)
	defer s.Shutdown(context.Background())

	held := func(id string) int {
		j := s.lookup(id)
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.plan.Jobs)
	}
	submit := func(seed uint64) JobInfo {
		t.Helper()
		info, err := s.Submit(gridSpec(seed), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if info.Total == 0 || held(info.ID) != info.Total {
			t.Fatalf("live job %s holds %d of its %d jobs", info.ID, held(info.ID), info.Total)
		}
		return info
	}

	running := submit(1) // parked
	// Parked campaigns of their own (seeds 4, 5, ...) take the other
	// admission slots, so the next submission queues.
	var fillers []JobInfo
	for seed := uint64(4); len(fillers) < maxActiveJobs-1; seed++ {
		fillers = append(fillers, submit(seed))
	}
	queued := submit(2)
	if _, err := s.Cancel(queued.ID, ""); err != nil {
		t.Fatal(err)
	}
	close(park)
	for _, j := range append(fillers, running) {
		waitTerminal(t, s, j.ID)
	}
	failing := submit(3)
	close(failGate)
	waitTerminal(t, s, failing.ID)

	for _, tc := range []struct {
		before JobInfo
		want   State
	}{{running, StateDone}, {queued, StateCanceled}, {failing, StateFailed}} {
		after, err := s.Job(tc.before.ID)
		if err != nil {
			t.Fatal(err)
		}
		if after.State != tc.want {
			t.Errorf("%s: state %s, want %s", after.ID, after.State, tc.want)
		}
		if n := held(after.ID); n != 0 {
			t.Errorf("%s (%s) still references %d expanded jobs", after.ID, after.State, n)
		}
		if after.Total != tc.before.Total || after.Fingerprint != tc.before.Fingerprint {
			t.Errorf("%s lost its identity with the list: total %d -> %d, fingerprint %q -> %q",
				after.ID, tc.before.Total, after.Total, tc.before.Fingerprint, after.Fingerprint)
		}
	}
}

// TestCancelledQueuedJobsCountTowardRetention: a job cancelled while
// queued turns terminal without a run, and counts against retainJobs
// like a finished one: past the cap, the next submission evicts the
// oldest.
func TestCancelledQueuedJobsCountTowardRetention(t *testing.T) {
	store, err := cache.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	park := make(chan struct{})
	s := newScheduler(store, func(cfg sim.Config) (sim.Result, error) {
		<-park
		return sim.Result{IPC: make([]float64, cfg.Cores), Finished: true}, nil
	}, 1)
	defer s.Shutdown(context.Background())
	defer close(park) // before Shutdown waits for the parked runs

	seed := uint64(1)
	submit := func() JobInfo {
		t.Helper()
		info, err := s.Submit(gridSpec(seed), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		seed++
		return info
	}
	for range maxActiveJobs { // parked: every later submission queues
		submit()
	}
	var cancelled []JobInfo
	for range retainJobs + 1 {
		info := submit()
		if _, err := s.Cancel(info.ID, ""); err != nil {
			t.Fatal(err)
		}
		cancelled = append(cancelled, info)
	}
	submit()
	if _, err := s.Job(cancelled[0].ID); !errors.Is(err, errNotFound) {
		t.Errorf("oldest cancelled job survived past the retention cap: %v", err)
	}
	if _, err := s.Job(cancelled[1].ID); err != nil {
		t.Errorf("second-oldest cancelled job evicted too: %v", err)
	}
}

// TestWarmServedCellDerivesOneKey is the served route's "derived once"
// (see campaign.TestWarmCellDerivesOneKey): a warm job — plan, engine,
// journal, one progress event per cell — runs cache.Key exactly once per
// cell, so the scheduler's events and the engine's journal read the key
// the store derived.
func TestWarmServedCellDerivesOneKey(t *testing.T) {
	store, err := cache.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newScheduler(store, func(cfg sim.Config) (sim.Result, error) {
		return sim.Result{IPC: make([]float64, cfg.Cores), Finished: true}, nil
	}, 1)
	defer s.Shutdown(context.Background())

	var info JobInfo
	pass := func() {
		if info, err = s.Submit(gridSpec(1), "", 0); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, info.ID)
	}
	pass() // cold: every later job is served from the store
	if info.Total == 0 {
		t.Fatal("empty campaign")
	}

	jobs, err := gridSpec(1).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	one := keycount.During(func() { cache.Key(jobs[0].Config) })
	got, want := keycount.During(pass), one*int64(info.Total)
	if one < 1 || got != want {
		t.Errorf("a warm served job of %d cells allocates %d objects inside cache.Key, want %d (%d per derivation)",
			info.Total, got, want, one)
	}
}
