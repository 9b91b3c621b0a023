// Package fabric is the distributed campaign layer: a coordinator that
// shards a campaign's cell set across registered svard-served workers
// using lease-based dispatch, then folds the figures locally from its
// own store — so the folded cells are bit-identical to a single-node
// run for ANY worker count, failure schedule, or cache state.
//
// The failure model is crash-stop workers over a flaky network:
//
//   - Each batch of cells is leased to one worker with a deadline.
//     Worker heartbeats renew their leases, so an alive-but-slow
//     worker keeps its work; a dead or partitioned one misses
//     heartbeats, its leases expire, and the cells are re-dispatched.
//   - Every call to a worker retries under Config.Retry, the client's one
//     retry policy. A batch send that exhausts it demotes the worker: it
//     gets no lease until its next heartbeat, and its cells are requeued
//     at once. A failed result fetch ends the fetching from that worker;
//     the cells it still owed are requeued.
//   - Completions are attributed exactly once, first writer wins: a
//     re-dispatched cell that some worker already delivered is ignored
//     (stale), and a completion arriving under an EXPIRED lease is
//     accepted as Served, never Computed — so `Computed` can never
//     double-count a cell however races resolve.
//   - The coordinator doubles as the shared remote object store
//     (GET/PUT /api/v1/objects/{key}, speaking the cache's sealed
//     envelope bytes), so workers publish results as they compute and
//     serve each other's cells through their cache's Remote layer.
//   - Dispatch-phase completions are journaled through the campaign
//     journal; a restarted coordinator resumes instead of
//     re-dispatching finished cells.
//
// Correctness never depends on the bookkeeping: results live in the
// content-addressed cache, and the final fold replays the campaign
// engine over the warm store.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/server"
	"svard/internal/sim"
)

// Config sizes a Coordinator.
type Config struct {
	// Store is the coordinator's result cache: the backing of the
	// object-store endpoints, the source of the final fold, and the
	// journal's home (required).
	Store *cache.Store

	// Sim replaces the executor behind the coordinator's own cell path —
	// the local fallback for cells no worker managed to deliver within
	// MaxCellAttempts lease generations. nil means the one default every
	// route shares: the pooled simulator (see campaign.Cell). Tests inject
	// counting runners.
	Sim sim.Runner

	// Workers bounds local parallelism (fallback computes and the final
	// fold; <= 0: GOMAXPROCS).
	Workers int

	// BatchSize is the number of cells per lease (<= 0: 16).
	BatchSize int

	// LeaseTTL is how long a dispatched batch stays owned without a
	// heartbeat renewing it (<= 0: 15s). Workers are considered live
	// while their last heartbeat is within one TTL, and are told to beat
	// every third of it.
	LeaseTTL time.Duration

	// MinWorkers is how many live workers RunCtx waits for before
	// dispatching (<= 0: 1).
	MinWorkers int

	// MaxCellAttempts bounds dispatch generations per cell before the
	// coordinator computes it locally (<= 0: 3).
	MaxCellAttempts int

	// Retry shapes the per-worker-endpoint clients: bounded retries with
	// jittered backoff. A worker that exhausts them is demoted until its
	// next heartbeat (see sendBatch). A zero AttemptTimeout is replaced by
	// none at all — a compute batch legitimately runs for minutes.
	Retry client.Policy

	// Resume picks up the campaign journal from a previous interrupted
	// coordinator run of the same spec.
	Resume bool

	// Logf, when set, receives dispatch-plane progress lines.
	Logf func(format string, args ...any)
}

// DispatchStats is the fabric-plane accounting of one campaign run.
type DispatchStats struct {
	Workers       int // workers that held at least one lease
	Batches       int // leases issued
	Redispatched  int // cell re-dispatches (expiry, errors, lost results)
	ExpiredLeases int // leases expired by missed heartbeats
	Stale         int // completions that arrived after the cell was done
	AcceptedLate  int // cells accepted as Served from expired-lease completions
	LocalCells    int // cells the coordinator computed itself as last resort
}

func (d DispatchStats) String() string {
	return fmt.Sprintf("%d workers, %d batches; %d redispatched, %d leases expired, %d stale, %d accepted late, %d local",
		d.Workers, d.Batches, d.Redispatched, d.ExpiredLeases, d.Stale, d.AcceptedLate, d.LocalCells)
}

// Result is a fabric campaign's outcome: the folded figures (identical
// to a local run) plus the dispatch-plane accounting.
type Result struct {
	*campaign.Outcome
	Dispatch DispatchStats
}

// Coordinator shards campaigns across registered workers. Construct
// with New, serve Handler() so workers can register/heartbeat and
// exchange objects, and run campaigns with RunCtx (one at a time).
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	// cell is the coordinator's own cell path (store, executor, and
	// Workers local slots): the last resort for cells the fleet could not
	// deliver.
	cell campaign.Cell

	mu         sync.Mutex
	workers    map[string]*worker
	nextWorker int64
	nextLease  int64
	run        *runState

	objectsServed atomic.Uint64
	objectsStored atomic.Uint64
}

// worker is one registered svard-served endpoint.
type worker struct {
	id       string
	name     string
	url      string
	client   *client.Client
	lastBeat time.Time
	inflight int // outstanding batches (capacity 1)
	leases   map[int64]*lease
	leased   bool // held a lease during the current run (DispatchStats.Workers)
}

// lease is one batch of cells owned by one worker until deadline.
type lease struct {
	id       int64
	w        *worker
	cells    []int // indices into runState.jobs
	deadline time.Time
	expired  bool
}

// runState is the dispatch-plane state of the campaign in flight.
type runState struct {
	ctx      context.Context
	jobs     []sim.Job
	keys     []string
	done     []bool
	attempts []int
	pending  []int
	journal  *campaign.Journal

	remaining int
	resumed   int
	computed  int
	served    int
	stats     DispatchStats

	failErr  error
	finished chan struct{}
	ended    bool
}

// New builds a coordinator. The store is required.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("fabric: config has no result store")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	if cfg.MaxCellAttempts <= 0 {
		cfg.MaxCellAttempts = 3
	}
	if cfg.Retry.AttemptTimeout == 0 {
		// A compute batch legitimately runs for minutes; lease expiry,
		// not a per-attempt stopwatch, is the liveness mechanism.
		cfg.Retry.AttemptTimeout = -1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cell:    campaign.Cell{Store: cfg.Store, Sim: cfg.Sim, Slots: make(chan struct{}, max(1, cfg.Workers))},
		workers: make(map[string]*worker),
	}
	c.mux.HandleFunc("POST /api/v1/workers", c.handleRegister)
	c.mux.HandleFunc("POST /api/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("GET /api/v1/objects/{key}", c.handleObjectGet)
	c.mux.HandleFunc("PUT /api/v1/objects/{key}", c.handleObjectPut)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c, nil
}

// Handler returns the coordinator's HTTP surface: worker registration
// and heartbeats, the shared object store, and a health probe.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// LiveWorkers counts workers whose last heartbeat is within one lease
// TTL.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked(time.Now())
}

func (c *Coordinator) liveLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.cfg.LeaseTTL {
			n++
		}
	}
	return n
}

// RunCtx plans the spec and runs the plan; see RunPlan.
func (c *Coordinator) RunCtx(ctx context.Context, spec campaign.Spec) (*Result, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	return c.RunPlan(ctx, plan)
}

// RunPlan shards one campaign across the registered workers and returns
// the folded outcome, bit-identical to a local run. It waits for
// MinWorkers live workers, dispatches lease-by-lease until every cell
// is journaled, then replays the plan locally over the warm store to
// fold. Exactly one campaign runs at a time.
func (c *Coordinator) RunPlan(ctx context.Context, plan campaign.Plan) (*Result, error) {
	jobs, fp := plan.Jobs, plan.Fingerprint
	journal, err := campaign.OpenJournal(c.cfg.Store.Dir(), fp, len(jobs), c.cfg.Resume)
	if err != nil {
		return nil, err
	}

	run := &runState{
		ctx:      ctx,
		jobs:     jobs,
		keys:     make([]string, len(jobs)),
		done:     make([]bool, len(jobs)),
		attempts: make([]int, len(jobs)),
		journal:  journal,
		finished: make(chan struct{}),
	}
	for i, j := range jobs {
		// The coordinator's own derivation, on purpose: it is what a
		// worker's untrusted reply is checked against (sendBatch).
		run.keys[i] = cache.Key(j.Config)
		// A journaled cell whose result is still in the store is done
		// before dispatch starts; a journaled cell the store lost is
		// re-dispatched (the journal is accounting, the cache is truth).
		if journal.Seen(run.keys[i]) && c.cfg.Store.Contains(run.keys[i]) {
			run.done[i] = true
			run.resumed++
			continue
		}
		run.pending = append(run.pending, i)
	}
	run.remaining = len(run.pending)

	c.mu.Lock()
	if c.run != nil {
		c.mu.Unlock()
		journal.Close()
		return nil, errors.New("fabric: a campaign is already running")
	}
	c.run = run
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		// A batch completion landing after this point must find the run
		// closed, or it would requeue and re-dispatch on a dead run.
		run.ended = true
		c.run = nil
		for _, w := range c.workers {
			w.leases = make(map[int64]*lease)
			w.inflight = 0
			w.leased = false
		}
		c.mu.Unlock()
		journal.Close()
	}()

	c.cfg.Logf("fabric: campaign %s: %d cells (%d resumed), batch=%d lease=%s",
		fp[:8], len(jobs), run.resumed, c.cfg.BatchSize, c.cfg.LeaseTTL)

	if run.remaining > 0 {
		if err := c.waitForWorkers(ctx, run); err != nil {
			return nil, err
		}
		tick := time.NewTicker(max(c.cfg.LeaseTTL/4, 10*time.Millisecond))
		defer tick.Stop()
		c.mu.Lock()
		c.dispatchLocked(run)
		c.mu.Unlock()
	loop:
		for {
			select {
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			case <-run.finished:
				break loop
			case now := <-tick.C:
				c.mu.Lock()
				c.expireLocked(run, now)
				c.dispatchLocked(run)
				c.mu.Unlock()
			}
		}
		c.mu.Lock()
		failErr := run.failErr
		c.mu.Unlock()
		if failErr != nil {
			return nil, failErr
		}
	}

	// Fold locally over the warm store: every cell is a cache hit, so
	// the folded figures are bit-identical to a single-node run. The
	// engine's own attribution is superseded by the dispatch plane's
	// (its compute callback only fires if the store lost an entry
	// between dispatch and fold — a recompute, not a new attribution).
	eng := &campaign.Engine{Store: c.cfg.Store, Workers: c.cfg.Workers, Resume: true, Sim: c.cfg.Sim}
	out, err := eng.RunPlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	out.Resumed = run.resumed
	out.Computed = run.computed
	out.Served = out.Total - run.resumed - run.computed
	stats := run.stats
	c.mu.Unlock()
	c.cfg.Logf("fabric: campaign %s done: computed=%d served=%d resumed=%d (%s)",
		fp[:8], out.Computed, out.Served, out.Resumed, stats)
	return &Result{Outcome: out, Dispatch: stats}, nil
}

// waitForWorkers blocks until MinWorkers live workers are registered —
// or the run already finished, because registrations and heartbeats
// dispatch opportunistically, so a fleet that shrinks below the gate
// after completing all the work must not wedge the campaign.
func (c *Coordinator) waitForWorkers(ctx context.Context, run *runState) error {
	for {
		c.mu.Lock()
		live := c.liveLocked(time.Now())
		ended := run.ended
		c.mu.Unlock()
		if live >= c.cfg.MinWorkers || ended {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fabric: waiting for %d workers: %w", c.cfg.MinWorkers, context.Cause(ctx))
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// dispatchLocked hands pending cells to idle live workers, one
// outstanding batch per worker (caller holds c.mu).
func (c *Coordinator) dispatchLocked(run *runState) {
	if run.ended {
		return
	}
	now := time.Now()
	for _, w := range c.workers {
		if len(run.pending) == 0 {
			return
		}
		if w.inflight > 0 || now.Sub(w.lastBeat) > c.cfg.LeaseTTL {
			continue
		}
		// Pop up to a batch of cells, skipping any a stale delivery
		// finished while they sat requeued.
		var cells []int
		for len(cells) < c.cfg.BatchSize && len(run.pending) > 0 {
			idx := run.pending[0]
			run.pending = run.pending[1:]
			if !run.done[idx] {
				cells = append(cells, idx)
			}
		}
		if len(cells) == 0 {
			return
		}
		c.nextLease++
		l := &lease{id: c.nextLease, w: w, cells: cells, deadline: now.Add(c.cfg.LeaseTTL)}
		w.inflight++
		w.leases[l.id] = l
		if !w.leased {
			w.leased = true
			run.stats.Workers++
		}
		run.stats.Batches++
		cfgs := make([]sim.Config, len(cells))
		for i, idx := range cells {
			cfgs[i] = run.jobs[idx].Config
		}
		c.cfg.Logf("fabric: lease %d -> %s: %d cells", l.id, w.name, len(cells))
		go c.sendBatch(run, l, cfgs)
	}
}

// expireLocked requeues the cells of leases whose deadline passed
// without a heartbeat renewal (caller holds c.mu). The in-flight HTTP
// call is NOT cancelled: if the worker is merely slow, its eventual
// completion is accepted as Served.
func (c *Coordinator) expireLocked(run *runState, now time.Time) {
	for _, w := range c.workers {
		for id, l := range w.leases {
			if l.expired || now.Before(l.deadline) {
				continue
			}
			l.expired = true
			delete(w.leases, id)
			run.stats.ExpiredLeases++
			c.cfg.Logf("fabric: lease %d (%s) expired; requeueing", l.id, w.name)
			for _, idx := range l.cells {
				if !run.done[idx] {
					c.requeueLocked(run, idx)
				}
			}
		}
	}
}

// requeueLocked puts a cell back in the queue, or escalates it to a
// local compute once its dispatch attempts are exhausted (caller holds
// c.mu).
func (c *Coordinator) requeueLocked(run *runState, idx int) {
	run.stats.Redispatched++
	run.attempts[idx]++
	if run.attempts[idx] >= c.cfg.MaxCellAttempts {
		run.stats.LocalCells++
		c.cfg.Logf("fabric: cell %s: %d dispatch attempts; computing locally",
			run.keys[idx][:8], run.attempts[idx])
		go c.computeLocal(run, idx)
		return
	}
	run.pending = append(run.pending, idx)
}

// sendBatch pushes one leased batch to its worker and feeds the
// response back into the dispatch plane.
func (c *Coordinator) sendBatch(run *runState, l *lease, cfgs []sim.Config) {
	resp, err := l.w.client.Compute(run.ctx, cfgs)
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if l.w.inflight > 0 {
			l.w.inflight--
		}
		if run.ended {
			return
		}
		c.cfg.Logf("fabric: lease %d (%s) failed: %v", l.id, l.w.name, err)
		// A failed send (retries exhausted or refused) is evidence of
		// death: demote the worker until its next heartbeat proves
		// otherwise, so its cells move to live workers instead of
		// ping-ponging back to the corpse.
		l.w.lastBeat = time.Time{}
		if !l.expired {
			l.expired = true
			delete(l.w.leases, l.id)
			for _, idx := range l.cells {
				if !run.done[idx] {
					c.requeueLocked(run, idx)
				}
			}
		}
		c.dispatchLocked(run)
		return
	}

	// Make every delivered result durable in the coordinator's store
	// BEFORE any accounting: a cell is only ever journaled as done once
	// its bytes are local truth. Workers publish through the remote
	// cache as they compute, so most of these are already present.
	//
	// The reply is untrusted input: entry i answers leased cell
	// l.cells[i] only if it carries the coordinator's own key for that
	// cell. A missing, failed or differently keyed entry leaves the cell
	// undelivered, and every lookup, fetch and store goes by run.keys
	// (immutable after RunPlan builds it), never by the reported key.
	// A worker that fails one fetch (it may have died after replying) is
	// asked for nothing more: the cells it still owes stay undelivered
	// instead of each costing a retry budget.
	reply := func(i int) server.ComputeCell {
		if i < len(resp.Cells) {
			return resp.Cells[i]
		}
		return server.ComputeCell{}
	}
	delivered := make([]bool, len(l.cells))
	fetching := true
	for i, idx := range l.cells {
		key := run.keys[idx]
		if cell := reply(i); cell.Error != "" || cell.Key != key {
			continue
		}
		if c.cfg.Store.Contains(key) {
			delivered[i] = true
			continue
		}
		if !fetching {
			continue
		}
		res, err := l.w.client.Cell(run.ctx, key)
		if err != nil {
			c.cfg.Logf("fabric: lease %d: fetching cell %s from %s: %v", l.id, key[:8], l.w.name, err)
			fetching = false
			continue
		}
		if c.cfg.Store.Put(key, res) == nil {
			delivered[i] = true
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if l.w.inflight > 0 {
		l.w.inflight--
	}
	if run.ended {
		return
	}
	stale := l.expired
	if !stale {
		delete(l.w.leases, l.id)
	}
	for i, idx := range l.cells {
		cell := reply(i)
		switch {
		case run.done[idx]:
			// First completion won; this one changes nothing.
			run.stats.Stale++
		case cell.Error != "":
			c.cfg.Logf("fabric: cell %s failed on %s: %s", run.keys[idx][:8], l.w.name, cell.Error)
			c.requeueLocked(run, idx)
		case !delivered[i]:
			// No entry for this cell, one under another key, or a claimed
			// completion whose result never became local truth: undone.
			c.requeueLocked(run, idx)
		case stale:
			// Completion under an expired lease: the cell may have been
			// re-dispatched concurrently, so it must never count as
			// Computed twice — accept it, attribute Served.
			run.stats.AcceptedLate++
			c.completeLocked(run, idx, false)
		default:
			c.completeLocked(run, idx, cell.Computed)
		}
	}
	c.dispatchLocked(run)
}

// completeLocked attributes one finished cell exactly once and
// journals it (caller holds c.mu; the result is already in the store).
func (c *Coordinator) completeLocked(run *runState, idx int, computed bool) {
	run.done[idx] = true
	run.remaining--
	if computed {
		run.computed++
	} else {
		run.served++
	}
	run.journal.Done(run.keys[idx])
	if run.remaining == 0 && !run.ended {
		run.ended = true
		close(run.finished)
	}
}

// computeLocal is the last-resort path: the coordinator runs the cell
// on its own cell path.
func (c *Coordinator) computeLocal(run *runState, idx int) {
	_, _, computed, err := c.cell.Run(run.ctx, run.jobs[idx].Config, nil)

	c.mu.Lock()
	defer c.mu.Unlock()
	if run.ended {
		return
	}
	if run.done[idx] {
		run.stats.Stale++
		return
	}
	if err != nil {
		if run.ctx.Err() != nil {
			return // cancelled, not failed: RunPlan reports the cause itself
		}
		// Local compute was the end of the line for this cell: the
		// campaign fails rather than silently losing a cell.
		run.failErr = fmt.Errorf("fabric: cell %s failed after %d dispatch attempts and a local compute: %w",
			run.keys[idx][:8], run.attempts[idx], err)
		run.ended = true
		close(run.finished)
		return
	}
	c.completeLocked(run, idx, computed)
}

// --- HTTP surface -----------------------------------------------------

// RegisterRequest is the body of POST /api/v1/workers.
type RegisterRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"` // the worker's svard-served base URL, reachable from the coordinator
}

// RegisterResponse tells the worker its identity and cadence.
type RegisterResponse struct {
	ID               string  `json:"id"`
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
	LeaseSeconds     float64 `json:"lease_seconds"`
}

// HeartbeatRequest is the body of POST /api/v1/heartbeat. An unknown
// ID (coordinator restarted, worker evicted) is a 404: the worker
// re-registers.
type HeartbeatRequest struct {
	ID string `json:"id"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New("register request has no url"))
		return
	}
	now := time.Now()
	c.mu.Lock()
	// A re-registration of the same endpoint supersedes the old entry;
	// its undone leased cells go back in the queue.
	for id, old := range c.workers {
		if old.url != req.URL {
			continue
		}
		for lid, l := range old.leases {
			l.expired = true
			delete(old.leases, lid)
			if c.run != nil {
				for _, idx := range l.cells {
					if !c.run.done[idx] {
						c.requeueLocked(c.run, idx)
					}
				}
			}
		}
		delete(c.workers, id)
	}
	c.nextWorker++
	wk := &worker{
		id:       fmt.Sprintf("worker-%d", c.nextWorker),
		name:     req.Name,
		url:      req.URL,
		client:   client.New(req.URL),
		lastBeat: now,
		leases:   make(map[int64]*lease),
	}
	wk.client.Retry = &c.cfg.Retry
	if wk.name == "" {
		wk.name = wk.id
	}
	c.workers[wk.id] = wk
	if c.run != nil {
		c.dispatchLocked(c.run)
	}
	c.mu.Unlock()
	c.cfg.Logf("fabric: worker %s (%s) registered at %s", wk.name, wk.id, wk.url)
	writeJSON(w, http.StatusOK, RegisterResponse{
		ID:               wk.id,
		HeartbeatSeconds: (c.cfg.LeaseTTL / 3).Seconds(),
		LeaseSeconds:     c.cfg.LeaseTTL.Seconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	wk, ok := c.workers[req.ID]
	if ok {
		wk.lastBeat = now
		// The beat renews every live lease the worker holds: an
		// alive-but-slow worker keeps its cells.
		for _, l := range wk.leases {
			l.deadline = now.Add(c.cfg.LeaseTTL)
		}
		if c.run != nil {
			c.dispatchLocked(c.run)
		}
	}
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q (re-register)", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cache.WellFormedKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed object key %q", key))
		return
	}
	res, ok := c.cfg.Store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no object %s", key))
		return
	}
	b, err := cache.Seal(key, res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	c.objectsServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (c *Coordinator) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cache.WellFormedKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed object key %q", key))
		return
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := cache.OpenEnvelope(key, b)
	if err != nil {
		// The envelope failed verification: reject it so a corrupt or
		// truncated upload can never poison the shared store.
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("object %s rejected: %w", key[:8], err))
		return
	}
	if err := c.cfg.Store.Put(key, res); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	c.objectsStored.Add(1)
	writeJSON(w, http.StatusNoContent, nil)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	total := len(c.workers)
	live := c.liveLocked(time.Now())
	running := c.run != nil
	var remaining int
	if c.run != nil {
		remaining = c.run.remaining
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"workers":         total,
		"workers_live":    live,
		"campaign":        running,
		"cells_remaining": remaining,
		"objects_served":  c.objectsServed.Load(),
		"objects_stored":  c.objectsStored.Load(),
	})
}
