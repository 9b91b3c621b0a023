// Package fabric is the distributed campaign layer: a coordinator that
// shards a campaign's cell set across registered svard-served workers
// using lease-based dispatch, then folds the results it took delivery of
// — so the folded cells are bit-identical to a single-node run for ANY
// worker count, failure schedule, or cache state.
//
// The failure model is crash-stop workers over a flaky network:
//
//   - Each batch of cells is leased to one worker with a deadline.
//     Worker heartbeats renew their leases, so an alive-but-slow
//     worker keeps its work; a dead or partitioned one misses
//     heartbeats, its leases expire, and the cells are re-dispatched.
//   - Every batch send retries under Config.Retry, the client's one
//     retry policy. A send that exhausts it, or whose reply is longer
//     than its cells' sealed entries can be, demotes the worker: it gets
//     no lease until its next heartbeat, and its cells are requeued at
//     once.
//   - The compute reply carries each cell's sealed cache entry, and that
//     is the only way a result reaches the coordinator. An entry is
//     opened against the coordinator's own key for the cell
//     (cache.OpenEnvelope: key, content sum, decode); a cell whose entry
//     is missing or fails to open is requeued.
//   - Completions are attributed exactly once, first writer wins: a
//     re-dispatched cell that some worker already delivered is ignored
//     (stale), and a completion arriving under an EXPIRED lease is
//     accepted as Served, never Computed — so `Computed` can never
//     double-count a cell however races resolve.
//   - The coordinator doubles as the shared remote object store
//     (GET/PUT /api/v1/objects/{key}, speaking the cache's sealed
//     envelope bytes), so workers whose cache has it as its Remote layer
//     publish results as they compute and serve each other's cells.
//   - Before dispatch, every cell whose result the coordinator's store
//     holds is done, served as a local engine serves it from its cache:
//     a restarted coordinator dispatches only the cells it lacks, and one
//     over a finished campaign needs no worker at all.
//   - Completions go into the campaign's run record (campaign.Record),
//     the one the local engine keeps: it journals them (a journaled cell
//     served again counts as resumed), and it attributes and folds them
//     exactly as a local run would.
//
// A result is delivered only once its opened entry is in the
// coordinator's store under the coordinator's own key for the cell, and
// the fold reads those delivered results: there is no second pass over
// the store.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/exec"
	"svard/internal/server"
	"svard/internal/sim"
)

// Config sizes a Coordinator.
type Config struct {
	// Store is the coordinator's result cache: the backing of the
	// object-store endpoints, where every delivered result is made
	// durable, and the journal's home (required).
	Store *cache.Store

	// Sim replaces the executor behind the coordinator's own cell path —
	// the local fallback for cells no worker managed to deliver within
	// MaxCellAttempts lease generations. nil means the one default every
	// route shares: the pooled simulator (see campaign.Cell). Tests inject
	// counting runners.
	Sim sim.Runner

	// Workers bounds the local fallback's concurrent computes (<= 0:
	// GOMAXPROCS).
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
	// lease is the worker's outstanding batch (capacity one, by design):
	// nil when idle. An expired lease stays here until its send returns,
	// so the worker takes no second batch meanwhile; only that send (or
	// the end of the run) clears it.
	lease  *lease
	leased bool // held a lease during the current run (DispatchStats.Workers)
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
	results  []sim.Result // what the fold reads: set once per cell, when it is done
	done     []bool
	attempts []int
	pending  []int
	record   *campaign.Record

	remaining int
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
		cell:    campaign.Cell{Store: cfg.Store, Sim: cfg.Sim, Slots: make(chan struct{}, exec.Workers(cfg.Workers))},
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
// the folded outcome, bit-identical to a local run. The cells its store
// holds are done at once; for the rest it waits for MinWorkers live
// workers and dispatches lease-by-lease until every cell is delivered.
// It folds the stored and delivered results through the campaign's run
// record. Exactly one campaign runs at a time.
func (c *Coordinator) RunPlan(ctx context.Context, plan campaign.Plan) (*Result, error) {
	record, err := campaign.OpenRecord(c.cfg.Store, plan)
	if err != nil {
		return nil, err
	}

	jobs := plan.Jobs
	run := &runState{
		ctx:      ctx,
		jobs:     jobs,
		keys:     make([]string, len(jobs)),
		results:  make([]sim.Result, len(jobs)),
		done:     make([]bool, len(jobs)),
		attempts: make([]int, len(jobs)),
		record:   record,
		finished: make(chan struct{}),
	}
	for i, j := range jobs {
		// The coordinator's own derivation, on purpose: it is what a
		// worker's untrusted reply is checked against (sendBatch).
		key := cache.Key(j.Config)
		run.keys[i] = key
		// A cell whose result the store holds is done before dispatch
		// starts, served as the engine serves it from its cache (and
		// resumed if an earlier run journaled it); a journaled cell the
		// store lost is dispatched again (the journal is accounting, the
		// cache is truth).
		if res, ok := c.cfg.Store.Get(key); ok {
			run.done[i], run.results[i] = true, res
			record.Done(key, false)
			continue
		}
		run.pending = append(run.pending, i)
	}
	run.remaining = len(run.pending)
	stored := len(jobs) - run.remaining // before c.run publishes the run to dispatch

	c.mu.Lock()
	if c.run != nil {
		c.mu.Unlock()
		record.Close()
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
			w.lease = nil
			w.leased = false
		}
		c.mu.Unlock()
		record.Close()
	}()

	fp := plan.Fingerprint[:8]
	if stored == len(jobs) {
		c.cfg.Logf("fabric: campaign %s: all %d cells in store", fp, len(jobs))
	} else {
		c.cfg.Logf("fabric: campaign %s: %d cells (%d in store); waiting for %d worker(s), batch=%d lease=%s",
			fp, len(jobs), stored, c.cfg.MinWorkers, c.cfg.BatchSize, c.cfg.LeaseTTL)
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

	// Every cell is done, so no completion writes run.results again (a
	// late one finds its cell done and counts as stale).
	c.mu.Lock()
	stats := run.stats
	c.mu.Unlock()
	out := record.Outcome(run.results)
	c.cfg.Logf("fabric: campaign %s done: computed=%d served=%d resumed=%d (%s)",
		fp, out.Computed, out.Served, out.Resumed, stats)
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
		if w.lease != nil || now.Sub(w.lastBeat) > c.cfg.LeaseTTL {
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
		w.lease = l
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
		l := w.lease
		if l == nil || l.expired || now.Before(l.deadline) {
			continue
		}
		run.stats.ExpiredLeases++
		c.cfg.Logf("fabric: lease %d (%s) expired; requeueing", l.id, w.name)
		c.expireLeaseLocked(run, l)
	}
}

// expireLeaseLocked marks l expired and requeues its undone cells
// (caller holds c.mu). A completion that arrives for it later is stale.
func (c *Coordinator) expireLeaseLocked(run *runState, l *lease) {
	l.expired = true
	for _, idx := range l.cells {
		if !run.done[idx] {
			c.requeueLocked(run, idx)
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
		c.releaseLocked(l)
		if run.ended {
			return
		}
		c.cfg.Logf("fabric: lease %d (%s) failed: %v", l.id, l.w.name, err)
		// A failed send (retries exhausted, refused, or a reply longer
		// than its entries can be) is evidence of death: demote the worker
		// until its next heartbeat proves otherwise, so its cells move to
		// live workers instead of ping-ponging back to the corpse.
		l.w.lastBeat = time.Time{}
		if !l.expired {
			c.expireLeaseLocked(run, l)
		}
		c.dispatchLocked(run)
		return
	}

	// Take delivery of every result, durable in the coordinator's store,
	// BEFORE any accounting: a cell is only ever recorded as done once its
	// bytes are local truth, and those bytes are what the fold reads.
	// Workers that publish through the remote cache have stored most of
	// these already, and Put does not write them again.
	//
	// The reply is untrusted input: entry i answers leased cell
	// l.cells[i] only if it opens against the coordinator's own key for
	// that cell (run.keys, immutable after RunPlan builds it), which
	// checks the sealed key, the content sum and the decode at once. A
	// missing, failed, mis-keyed or altered entry leaves the cell
	// undelivered.
	delivered := make([]*sim.Result, len(l.cells)) // nil: undelivered
	for i, idx := range l.cells {
		if i >= len(resp.Cells) {
			break
		}
		key, cell := run.keys[idx], resp.Cells[i]
		if cell.Error != "" {
			c.cfg.Logf("fabric: cell %s failed on %s: %s", key[:8], l.w.name, cell.Error)
			continue
		}
		res, err := cache.OpenEnvelope(key, cell.Entry)
		if err != nil {
			c.cfg.Logf("fabric: lease %d: cell %s from %s refused: %v", l.id, key[:8], l.w.name, err)
			continue
		}
		if c.cfg.Store.Put(key, res) == nil {
			delivered[i] = &res
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(l)
	if run.ended {
		return
	}
	stale := l.expired
	for i, idx := range l.cells {
		switch {
		case run.done[idx]:
			// First completion won; this one changes nothing.
			run.stats.Stale++
		case delivered[i] == nil:
			c.requeueLocked(run, idx)
		case stale:
			// Completion under an expired lease: the cell may have been
			// re-dispatched concurrently, so it must never count as
			// Computed twice — accept it, attribute Served.
			run.stats.AcceptedLate++
			c.completeLocked(run, idx, *delivered[i], false)
		default:
			c.completeLocked(run, idx, *delivered[i], resp.Cells[i].Computed)
		}
	}
	c.dispatchLocked(run)
}

// releaseLocked frees l's worker for its next batch once l's send has
// returned (caller holds c.mu). A send left over from an earlier run, or
// from before the worker re-registered, finds another lease (or none) in
// the field and frees nothing.
func (c *Coordinator) releaseLocked(l *lease) {
	if l.w.lease == l {
		l.w.lease = nil
	}
}

// completeLocked takes one finished cell's result for the fold and hands
// the cell to the run record, exactly once (caller holds c.mu; the result
// is already in the store).
func (c *Coordinator) completeLocked(run *runState, idx int, res sim.Result, computed bool) {
	run.done[idx] = true
	run.results[idx] = res
	run.remaining--
	run.record.Done(run.keys[idx], computed)
	if run.remaining == 0 && !run.ended {
		run.ended = true
		close(run.finished)
	}
}

// computeLocal is the last-resort path: the coordinator runs the cell
// on its own cell path, through exec, so a panic there fails the
// campaign, not the coordinator.
func (c *Coordinator) computeLocal(run *runState, idx int) {
	var res sim.Result
	var computed bool
	_, err := exec.MapCtx(run.ctx, 1, 1, func(int) (_ struct{}, err error) {
		res, _, computed, err = c.cell.Run(run.ctx, run.jobs[idx].Config, nil)
		return
	})

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
	c.completeLocked(run, idx, res, computed)
}

// --- HTTP surface -----------------------------------------------------

// maxBody caps every request body read: an object PUT carries one
// envelope, and no registration or heartbeat comes near that bound.
const maxBody = cache.MaxEnvelopeBytes

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
	if !server.DecodeBody(w, r, maxBody, "register request", &req) {
		return
	}
	// The URL is where every batch of the worker's leases goes: one that
	// cannot be an svard-served endpoint would fail each send until its
	// cells fall back to local computes.
	if u, err := url.Parse(req.URL); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("register request: url %q is not an http(s) base URL", req.URL))
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
		if l := old.lease; l != nil && !l.expired && c.run != nil {
			c.expireLeaseLocked(c.run, l)
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
	server.WriteJSON(w, http.StatusOK, RegisterResponse{
		ID:               wk.id,
		HeartbeatSeconds: (c.cfg.LeaseTTL / 3).Seconds(),
		LeaseSeconds:     c.cfg.LeaseTTL.Seconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !server.DecodeBody(w, r, maxBody, "heartbeat request", &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	wk, ok := c.workers[req.ID]
	if ok {
		wk.lastBeat = now
		// The beat renews the worker's live lease: an alive-but-slow
		// worker keeps its cells.
		if l := wk.lease; l != nil && !l.expired {
			l.deadline = now.Add(c.cfg.LeaseTTL)
		}
		if c.run != nil {
			c.dispatchLocked(c.run)
		}
	}
	c.mu.Unlock()
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q (re-register)", req.ID))
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cache.WellFormedKey(key) {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("malformed object key %q", key))
		return
	}
	res, ok := c.cfg.Store.Get(key)
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Errorf("no object %s", key))
		return
	}
	b, err := cache.Seal(key, res)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	c.objectsServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (c *Coordinator) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cache.WellFormedKey(key) {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("malformed object key %q", key))
		return
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		server.WriteError(w, server.StatusOf(r, err), err)
		return
	}
	res, err := cache.OpenEnvelope(key, b)
	if err != nil {
		// The envelope failed verification: reject it so a corrupt or
		// truncated upload can never poison the shared store.
		server.WriteError(w, http.StatusUnprocessableEntity, fmt.Errorf("object %s rejected: %w", key[:8], err))
		return
	}
	if err := c.cfg.Store.Put(key, res); err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	c.objectsStored.Add(1)
	w.WriteHeader(http.StatusNoContent)
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
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"workers":         total,
		"workers_live":    live,
		"campaign":        running,
		"cells_remaining": remaining,
		"objects_served":  c.objectsServed.Load(),
		"objects_stored":  c.objectsStored.Load(),
	})
}
