package campaign

import (
	"context"
	"runtime/pprof"
	"strconv"

	"svard/internal/cache"
	"svard/internal/dram"
	"svard/internal/obs"
	"svard/internal/sim"
)

// Cell is the one way a simulation cell executes, whichever route asked
// for it (a local campaign, a svard-served job, a fabric compute batch,
// the coordinator's local fallback): result-cache lookup, then — on a
// miss only — a worker slot, then the simulator.
type Cell struct {
	Store *cache.Store // result cache (required)

	// Sim replaces the simulator a miss falls back to (tests inject
	// counting or failing runners; they run unrecorded). nil is the one
	// default: sim.PooledRunRecorded, allocation-flat on the process-wide
	// arena pool and bit-identical to a run from fresh allocations.
	Sim sim.Runner

	// Slots, when non-nil, bounds concurrent simulations across everything
	// sharing the channel; its capacity is the bound.
	Slots chan struct{}
}

// Run returns cfg's result and — on every path, errors and cancellations
// included — the key the store derived for it, the cell's identity in
// journals, events and traces. computed reports that this call ran the
// simulator; false means a cache layer served the cell or the call
// coalesced onto a computation already in flight — the distinction every
// route's exactly-once attribution is built on.
//
// The slot is taken inside the cache's compute callback, so hits and
// coalesced waiters never hold a worker. Cancellation while queued for a
// slot returns context.Cause(ctx); causes wrap context.Canceled, so the
// cache's singleflight lets a coalesced waiter retry the cell instead of
// inheriting the cancellation.
//
// A non-nil rec gets the lookup span (ending where the simulator takes
// over, or — for a served cell — when the lookup returns), the
// simulator's own phases and counters, and exactly one of CellsComputed
// and CellsServed.
//
// With obs.EnableProfilingLabels on (svard-sweep -cpuprofile,
// svard-served -pprof), the simulation runs under pprof labels naming
// its defense, nrh, module and backend, so `go tool pprof -tags` splits
// a CPU profile by cell on every route. Off by default: pprof.Do
// allocates per call.
func (c *Cell) Run(ctx context.Context, cfg sim.Config, rec *obs.Recorder) (res sim.Result, key string, computed bool, err error) {
	rec.Begin(obs.PhaseLookup)
	res, key, err = c.Store.GetOrCompute(cfg, func(cfg sim.Config) (sim.Result, error) {
		rec.End(obs.PhaseLookup)
		if c.Slots != nil {
			select {
			case c.Slots <- struct{}{}:
			case <-ctx.Done():
				return sim.Result{}, context.Cause(ctx)
			}
			defer func() { <-c.Slots }()
		}
		computed = true
		if obs.ProfilingLabelsEnabled() {
			return c.simulateLabelled(ctx, cfg, rec)
		}
		return c.simulate(cfg, rec)
	})
	if rec != nil {
		if computed {
			rec.Counters.CellsComputed = 1
		} else {
			rec.End(obs.PhaseLookup)
			rec.Counters.CellsServed = 1
		}
	}
	return res, key, computed, err
}

// simulate runs one missed cell: the injected Sim, else the pooled
// simulator under rec.
func (c *Cell) simulate(cfg sim.Config, rec *obs.Recorder) (sim.Result, error) {
	if c.Sim != nil {
		return c.Sim(cfg)
	}
	return sim.PooledRunRecorded(cfg, rec)
}

// simulateLabelled is simulate under pprof labels naming the cell's
// defense, nrh, module and backend.
func (c *Cell) simulateLabelled(ctx context.Context, cfg sim.Config, rec *obs.Recorder) (res sim.Result, err error) {
	backend := cfg.Backend
	if backend == "" {
		backend = dram.BackendDDR4
	}
	labels := pprof.Labels("defense", cfg.Defense, "nrh", strconv.FormatFloat(cfg.NRH, 'g', -1, 64),
		"module", cfg.ModuleLabel, "backend", backend)
	pprof.Do(ctx, labels, func(context.Context) { res, err = c.simulate(cfg, rec) })
	return res, err
}

// CellLabel names a cell for people: svard-sweep's progress line, the
// service's cell events and the flight-recorder trace. The mix is part of
// it, any backend but the DDR4 default, and a temporal leg's age: without
// them every mix, both backends' instances in a Spec.Backends campaign, or
// the legs of one margin-erosion point would label identically. An
// erosion sweep's calibration leg is a plain Fig. 12 cell (same config,
// same key) and labels as one. The cache key carries the exact identity.
func CellLabel(cfg sim.Config) string {
	var buf [256]byte
	b := append(buf[:0], cfg.Defense...)
	b = append(b, " nRH="...)
	b = strconv.AppendFloat(b, cfg.NRH, 'g', -1, 64)
	b = append(b, ' ')
	b = append(b, cfg.ModuleLabel...)
	if cfg.Svard {
		b = append(b, " svard ["...)
	} else {
		b = append(b, " nosvard ["...)
	}
	for i, w := range cfg.Mix {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, w...)
	}
	b = append(b, ']')
	if cfg.Backend != "" && cfg.Backend != dram.BackendDDR4 {
		b = append(b, ' ')
		b = append(b, cfg.Backend...)
	}
	if cfg.Temporal != nil {
		b = append(b, " age="...)
		b = strconv.AppendUint(b, cfg.Temporal.AgeEpochs, 10)
	}
	return string(b)
}
