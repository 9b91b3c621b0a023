package campaign

import (
	"context"

	"svard/internal/cache"
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
		if c.Sim != nil {
			return c.Sim(cfg)
		}
		return sim.PooledRunRecorded(cfg, rec)
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
