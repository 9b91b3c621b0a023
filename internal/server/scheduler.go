// Package server is the resident campaign service behind svard-served:
// one process holding one shared result cache, one warm module pool,
// and one scheduler, multiplexed over an HTTP API so many clients can
// submit campaign.Specs as asynchronous jobs, stream per-cell progress,
// and query folded figures and raw cached cells.
//
// Determinism is the contract the whole stack inherits from the sweep
// engine: a job's folded cells are bit-identical to a direct
// sim.RunFig12Ctx/RunFig13Ctx call — the scheduler only changes when and where
// cells compute, never what they compute — and the end-to-end tests
// assert it against internal/sim's golden fixtures.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/exec"
	"svard/internal/obs"
	"svard/internal/sim"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one record of a job's progress stream: a state transition or
// a completed cell. Seq is the event's index in the job's stream, so a
// reconnecting client resumes from where it stopped (?from=Seq). Key is
// the completed cell's content address — its unambiguous identity,
// resolvable via GET /api/v1/cells/{key} (Label is human-oriented).
type Event struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"` // "state" or "cell"
	State State     `json:"state,omitempty"`
	Label string    `json:"label,omitempty"` // completed cell's label (type "cell")
	Key   string    `json:"key,omitempty"`   // completed cell's cache key (type "cell")
	Done  int       `json:"done,omitempty"`  // cells completed so far
	Total int       `json:"total"`
	Error string    `json:"error,omitempty"`
}

// JobInfo is the API view of a job.
type JobInfo struct {
	ID          string     `json:"id"`
	Name        string     `json:"name,omitempty"`
	Priority    int        `json:"priority"`
	State       State      `json:"state"`
	Fingerprint string     `json:"fingerprint"`
	Total       int        `json:"total"` // simulation cells in the campaign
	Done        int        `json:"done"`  // cells completed (cache hits included)
	Resumed     int        `json:"resumed,omitempty"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// job is the scheduler's record of one submitted campaign.
type job struct {
	id       string
	name     string
	priority int
	seq      int64 // admission tiebreak: FIFO within a priority

	// plan is the campaign as Submit derived it, once. total outlives
	// plan.Jobs, which a terminal job drops (finishLocked).
	plan  campaign.Plan
	total int

	ctx    context.Context
	cancel context.CancelCauseFunc

	// trace is the job's flight recorder: per-cell phase spans and
	// counter snapshots, capped at maxRetainedTraceCells span records
	// (counter totals keep accumulating past the cap). Served by
	// GET /api/v1/jobs/{id}/trace and rolled up on /metrics.
	trace *obs.Trace

	mu       sync.Mutex
	state    State
	done     int
	resumed  int
	err      error
	events   []Event
	eventSeq int           // next Event.Seq; monotonic even after compaction
	changed  chan struct{} // closed and replaced on every append
	outcome  *campaign.Outcome
	sub      time.Time
	started  *time.Time
	finished *time.Time
}

// info snapshots the job under its lock.
func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	inf := JobInfo{
		ID:          j.id,
		Name:        j.name,
		Priority:    j.priority,
		State:       j.state,
		Fingerprint: j.plan.Fingerprint,
		Total:       j.total,
		Done:        j.done,
		Resumed:     j.resumed,
		SubmittedAt: j.sub,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	if j.err != nil {
		inf.Error = j.err.Error()
	}
	return inf
}

// append records an event and wakes every stream follower (caller holds
// j.mu).
func (j *job) append(ev Event) {
	ev.Seq = j.eventSeq
	j.eventSeq++
	ev.Time = time.Now().UTC()
	ev.Total = j.total
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// maxRetainedCellEvents bounds a terminal job's event log. While a job
// runs, every per-cell event is retained so a reconnecting stream can
// replay from any offset; once the job is terminal, a log bigger than
// this compacts down to its state-transition events (cell events are
// only replay fuel, and a paper-scale campaign's ~17K of them would
// otherwise sit in memory until the job is evicted). Seq numbering is
// monotonic across compaction, so ?from= offsets stay valid — a client
// asking for compacted seqs simply receives the retained tail.
const maxRetainedCellEvents = 1024

// maxRetainedTraceCells bounds a job's flight-recorder span records for
// the same reason: a paper-scale campaign's ~17K cells at a few hundred
// bytes each would otherwise sit in memory until the job is evicted.
// Counter totals (the /metrics rollups) are exact regardless — only
// span records past the cap are dropped, and the trace notes how many.
const maxRetainedTraceCells = 2048

// finishLocked moves the job to a terminal state (caller holds j.mu): the
// closing event, the release of the plan's job list (16.8K configs at paper
// scale, times retainJobs), and the compaction of a large event log.
func (j *job) finishLocked(state State, err error) {
	now := time.Now().UTC()
	j.state = state
	j.err = err
	j.finished = &now
	ev := Event{Type: "state", State: state, Done: j.done}
	if err != nil {
		ev.Error = err.Error()
	}
	j.append(ev)
	j.plan.Jobs = nil
	if len(j.events) <= maxRetainedCellEvents {
		return
	}
	kept := j.events[:0]
	for _, ev := range j.events {
		if ev.Type != "cell" {
			kept = append(kept, ev)
		}
	}
	j.events = kept
}

// stop cancels the job's context; a job that was never admitted has no
// run to finalize it, so it turns terminal here.
func (j *job) stop(cause error) {
	j.cancel(cause)
	j.mu.Lock()
	if j.state == StateQueued {
		j.finishLocked(StateCanceled, cause)
	}
	j.mu.Unlock()
}

// The job table's two bounds. At most maxActiveJobs jobs are admitted at
// once; queued jobs beyond it wait, highest priority first. Beyond
// retainJobs terminal jobs, the oldest are evicted with their event logs
// and folded outcomes, so a long-lived daemon's memory stays bounded.
const (
	maxActiveJobs = 4
	retainJobs    = 256
)

// Scheduler owns the job table, the admission queue, and the worker
// slots every running job's cells contend for. Admission is
// FIFO-within-priority: among queued jobs, the highest Priority runs
// first, ties broken by submission order. Cells across concurrently
// admitted jobs share one bounded pool, and overlapping jobs
// deduplicate shared cells through the cache's singleflight — two
// clients sweeping intersecting specs compute each shared cell once.
type Scheduler struct {
	// cell is the one cell path every job's engine and every compute
	// batch executes on: the shared store, the injected executor, and one
	// token per global worker slot.
	cell    campaign.Cell
	workers int

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order, for listing
	queue   []*job // admission queue (popped by priority, then seq)
	active  int
	nextSeq int64
	closed  bool
	batches obs.Counters // what every compute batch's cells counted

	wg        sync.WaitGroup
	cellsDone atomic.Uint64 // completed cells across all jobs, ever
}

// newScheduler wires a scheduler over the shared store. workers bounds
// concurrent simulations across all jobs.
func newScheduler(store *cache.Store, run sim.Runner, workers int) *Scheduler {
	workers = exec.Workers(workers) // <= 0: GOMAXPROCS, like the sweep engine
	return &Scheduler{
		cell:    campaign.Cell{Store: store, Sim: run, Slots: make(chan struct{}, workers)},
		workers: workers,
		jobs:    make(map[string]*job),
	}
}

// Submit validates and enqueues a campaign, returning the queued job's
// info. The spec is validated (and its job list sized) before anything
// is admitted, so a malformed campaign fails the submit call, never a
// running job.
//
// Submission is idempotent over in-flight work: a spec whose
// fingerprint matches a queued or running job returns that job instead
// of enqueuing a duplicate — the whole campaign is one shared unit of
// work, exactly like two overlapping specs sharing cells through the
// cache. Resubmitting after the earlier job finished (or was cancelled)
// starts a fresh job, which replays from the cache and journal.
func (s *Scheduler) Submit(spec campaign.Spec, name string, priority int) (JobInfo, error) {
	plan, err := spec.Plan()
	if err != nil {
		return JobInfo{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobInfo{}, ErrShuttingDown
	}
	for _, existing := range s.order {
		if existing.plan.Fingerprint != plan.Fingerprint {
			continue
		}
		existing.mu.Lock()
		terminal := existing.state.Terminal()
		existing.mu.Unlock()
		// A cancelled job counts as terminal here even before its
		// in-flight cell drains: cancel-then-resubmit is the documented
		// resume flow, and it must get a fresh job, not the dying one.
		if !terminal && existing.ctx.Err() == nil {
			// The duplicate's priority still counts: resubmitting a
			// queued spec at higher priority expedites the shared job
			// (priority only ever rises — a low-priority duplicate
			// cannot demote work someone already paid more for).
			if priority > existing.priority {
				existing.mu.Lock()
				existing.priority = priority
				existing.mu.Unlock()
			}
			return existing.info(), nil
		}
	}
	s.nextSeq++
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		id:       fmt.Sprintf("job-%d", s.nextSeq),
		name:     name,
		priority: priority,
		seq:      s.nextSeq,
		plan:     plan,
		total:    len(plan.Jobs),
		ctx:      ctx,
		cancel:   cancel,
		trace:    obs.NewTraceLimit(maxRetainedTraceCells),
		state:    StateQueued,
		changed:  make(chan struct{}),
		sub:      time.Now().UTC(),
	}
	j.mu.Lock()
	j.append(Event{Type: "state", State: StateQueued})
	j.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.pruneLocked()
	s.dispatchLocked()
	return j.info(), nil
}

// pruneLocked evicts the oldest terminal jobs once more than retainJobs
// of them have accumulated (caller holds s.mu), bounding the daemon's
// memory across weeks of recurring submissions: a terminal job retains
// its full event log and folded outcome until evicted. The cap counts
// finished jobs only — live jobs neither count against it nor are ever
// evicted, so a deep queue backlog cannot push a just-completed job
// (and its not-yet-fetched result) out from under its client. An
// evicted job's ID becomes a 404; its cells live on in the cache.
func (s *Scheduler) pruneLocked() {
	terminal := 0
	for _, j := range s.order {
		j.mu.Lock()
		t := j.state.Terminal()
		j.mu.Unlock()
		if t {
			terminal++
		}
	}
	for terminal > retainJobs {
		for i, j := range s.order {
			j.mu.Lock()
			t := j.state.Terminal()
			j.mu.Unlock()
			if t {
				s.order = append(s.order[:i], s.order[i+1:]...)
				delete(s.jobs, j.id)
				terminal--
				break
			}
		}
	}
}

// dispatchLocked admits queued jobs while active slots remain (caller
// holds s.mu). Pop order: highest priority first, FIFO within it.
func (s *Scheduler) dispatchLocked() {
	for !s.closed && s.active < maxActiveJobs && len(s.queue) > 0 {
		best := 0
		for i, j := range s.queue[1:] {
			if j.priority > s.queue[best].priority ||
				(j.priority == s.queue[best].priority && j.seq < s.queue[best].seq) {
				best = i + 1
			}
		}
		j := s.queue[best]
		s.queue = append(s.queue[:best], s.queue[best+1:]...)
		s.active++
		s.wg.Add(1)
		go s.run(j)
	}
}

// run executes one admitted job to a terminal state, then admits the
// next queued one.
func (s *Scheduler) run(j *job) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.active--
		s.pruneLocked() // this job just turned terminal; enforce retention
		s.dispatchLocked()
		s.mu.Unlock()
	}()

	now := time.Now().UTC()
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued, between pop and here
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = &now
	j.append(Event{Type: "state", State: StateRunning})
	j.mu.Unlock()

	eng := &campaign.Engine{
		Store: s.cell.Store,
		Sim:   s.cell.Sim,
		// Cells contend for the shared worker slots only when they
		// actually compute. The engine's pool may outnumber the global
		// slots; excess goroutines just queue for one, and the shared
		// bound holds.
		Slots:   s.cell.Slots,
		Workers: s.workers,
		Trace:   j.trace,
		Observe: func(cfg sim.Config, key string) {
			s.cellsDone.Add(1)
			j.mu.Lock()
			j.done++
			j.append(Event{Type: "cell", Label: campaign.CellLabel(cfg), Key: key, Done: j.done})
			j.mu.Unlock()
		},
	}
	out, err := eng.RunPlan(j.ctx, j.plan)

	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.outcome = out
		j.resumed = out.Resumed
		j.finishLocked(StateDone, nil)
	case j.ctx.Err() != nil:
		j.finishLocked(StateCanceled, context.Cause(j.ctx))
	default:
		j.finishLocked(StateFailed, clientError("job "+j.id, err))
	}
}

// Cancel stops a job: a queued job terminates immediately, a running
// one stops dispatching cells and returns within one cell's latency.
// Its journal survives, so resubmitting the same spec resumes it.
func (s *Scheduler) Cancel(id, reason string) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobInfo{}, errNotFound
	}
	// Remove from the admission queue if still waiting there.
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	// Wrap context.Canceled so the cache's singleflight classifies the
	// failure as a lifetime event, not a cell failure — an overlapping
	// job coalesced on one of this job's in-flight cells then retries
	// the cell instead of inheriting the cancellation.
	if reason == "" {
		reason = "by client"
	}
	j.stop(fmt.Errorf("canceled %s (%w)", reason, context.Canceled))
	return j.info(), nil
}

// Job returns one job's info.
func (s *Scheduler) Job(id string) (JobInfo, error) {
	if j := s.lookup(id); j != nil {
		return j.info(), nil
	}
	return JobInfo{}, errNotFound
}

// Jobs lists every job in submission order.
func (s *Scheduler) Jobs() []JobInfo {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	infos := make([]JobInfo, len(order))
	for i, j := range order {
		infos[i] = j.info()
	}
	return infos
}

// Trace returns a job's flight-recorder trace (available from the
// moment the job is admitted; it grows as cells complete).
func (s *Scheduler) Trace(id string) (*obs.Trace, JobInfo, error) {
	j := s.lookup(id)
	if j == nil {
		return nil, JobInfo{}, errNotFound
	}
	return j.trace, j.info(), nil
}

// Outcome returns a completed job's folded figures.
func (s *Scheduler) Outcome(id string) (*campaign.Outcome, JobInfo, error) {
	j := s.lookup(id)
	if j == nil {
		return nil, JobInfo{}, errNotFound
	}
	j.mu.Lock()
	out := j.outcome
	j.mu.Unlock()
	return out, j.info(), nil
}

// Events returns the job's events with Seq >= from plus a channel that
// is closed when more arrive (or nil if the job is terminal, so no
// more ever will). Seqs may have gaps after a terminal job's large
// cell log was compacted — callers follow Seq, not positions.
func (s *Scheduler) Events(id string, from int) ([]Event, <-chan struct{}, error) {
	j := s.lookup(id)
	if j == nil {
		return nil, nil, errNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	for _, ev := range j.events {
		if ev.Seq >= from {
			evs = append(evs, ev)
		}
	}
	if j.state.Terminal() {
		// The terminal event is appended in the same critical section
		// that sets the state, so a terminal job's log is complete.
		return evs, nil, nil
	}
	return evs, j.changed, nil
}

// lookup finds a job by ID.
func (s *Scheduler) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// queueDepth and activeJobs are metrics reads.
func (s *Scheduler) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// stateCounts tallies jobs per state.
func (s *Scheduler) stateCounts() map[State]int {
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
	}
	for _, inf := range s.Jobs() {
		counts[inf.State]++
	}
	return counts
}

// busyWorkers is the number of worker slots currently computing cells.
func (s *Scheduler) busyWorkers() int { return len(s.cell.Slots) }

// Shutdown stops admission, cancels every non-terminal job (each
// returns within one cell's latency, journal intact for resume), and
// waits for all of them — or for ctx, whichever first.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	all := append([]*job(nil), s.order...)
	s.queue = nil
	s.mu.Unlock()

	cause := fmt.Errorf("server shutting down (%w)", context.Canceled)
	for _, j := range all {
		j.stop(cause)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out: %w", context.Cause(ctx))
	}
}

var errNotFound = errors.New("server: no such job")

// ErrShuttingDown is returned by Submit once graceful shutdown has
// begun; the HTTP layer maps it to 503 so clients retry against a
// restarted daemon instead of treating the spec as malformed.
var ErrShuttingDown = errors.New("server: scheduler is shut down")
