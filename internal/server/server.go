package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/exec"
	"svard/internal/sim"
)

// Config sizes a Server.
type Config struct {
	// Store is the shared result cache every job reads and writes
	// (required). One store per daemon: that sharing is the point.
	Store *cache.Store

	// Workers bounds concurrent simulations across ALL jobs (<= 0:
	// GOMAXPROCS).
	Workers int

	// Sim replaces the executor a cache miss falls back to (tests inject
	// counting or failing runners). nil means the one default every route
	// shares: the pooled simulator (see campaign.Cell).
	Sim sim.Runner
}

// Server is the campaign service: an HTTP API over one Scheduler and
// one cache.Store. Construct with New, serve Handler(), stop with
// Shutdown.
type Server struct {
	store *cache.Store
	sched *Scheduler
	mux   *http.ServeMux
	start time.Time
}

// New builds the service.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: config has no result store")
	}
	s := &Server{
		store: cfg.Store,
		sched: newScheduler(cfg.Store, cfg.Sim, cfg.Workers),
		mux:   http.NewServeMux(),
		start: time.Now().UTC(),
	}
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /api/v1/cells/{key}", s.handleCell)
	s.mux.HandleFunc("POST /api/v1/compute", s.handleCompute)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler (also usable under
// httptest and custom http.Servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the job table to in-process embedders (the daemon's
// shutdown path, tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Shutdown stops admission, cancels all jobs, and waits for them (or
// ctx). See Scheduler.Shutdown for the latency contract.
func (s *Server) Shutdown(ctx context.Context) error { return s.sched.Shutdown(ctx) }

// SubmitRequest is the body of POST /api/v1/jobs.
type SubmitRequest struct {
	Name     string        `json:"name,omitempty"`
	Priority int           `json:"priority,omitempty"` // higher runs first; FIFO within a priority
	Spec     campaign.Spec `json:"spec"`
}

// ResultResponse is the body of GET /api/v1/jobs/{id}/result: the job
// plus its whole campaign.Outcome — every figure (Fig12, Fig13, a
// population campaign's Bands, a temporal campaign's Erosion) and the
// exactly-once Computed/Served attribution. Stats is the shared store's
// global counter snapshot (the whole daemon, not just this job).
type ResultResponse struct {
	Job JobInfo `json:"job"`
	campaign.Outcome
}

// CellResponse is the body of GET /api/v1/cells/{key}.
type CellResponse struct {
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// maxRequestBody caps the JSON bodies of the submit and compute routes:
// 4 MiB admits a paper-scale 120-mix spec and a 1024-cell batch.
const maxRequestBody = 4 << 20

// DecodeBody decodes r's JSON body, capped at limit bytes, into v by
// campaign.DecodeJSON's rule: the one decoder of the request bodies of
// both daemons, the service and the fabric coordinator. On failure it
// answers StatusOf's class (413 over the cap, else 400 naming what is
// wrong) and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := campaign.DecodeJSON(http.MaxBytesReader(w, r.Body, limit), what, v)
	if err != nil {
		WriteError(w, StatusOf(r, err), err)
	}
	return err == nil
}

// StatusOf is the status class of a request that failed with err: 413
// for a body over its cap, 503 while the server shuts down or once the
// request is cancelled, 500 for a panic (a fault of the server, not of
// the request), and 400 for anything else: the request is wrong.
func StatusOf(r *http.Request, err error) int {
	var tooBig *http.MaxBytesError
	var p *exec.PanicError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrShuttingDown), r.Context().Err() != nil:
		return http.StatusServiceUnavailable
	case errors.As(err, &p):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// clientError is err as a client reads it: a panic is reported by its
// value, and its stack goes to the log under what, for the daemon's
// operator alone.
func clientError(what string, err error) error {
	var p *exec.PanicError
	if !errors.As(err, &p) {
		return err
	}
	log.Printf("%s: %v", what, err)
	return fmt.Errorf("a cell panicked: %v", p.Value)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !DecodeBody(w, r, maxRequestBody, "submit request", &req) {
		return
	}
	info, err := s.sched.Submit(req.Spec, req.Name, req.Priority)
	if err != nil {
		WriteError(w, StatusOf(r, err), err)
		return
	}
	WriteJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.sched.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, err := s.sched.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.sched.Cancel(r.PathValue("id"), r.URL.Query().Get("reason"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleEvents streams the job's progress as NDJSON: every line one
// Event, flushed as it happens, following until the job is terminal
// (or the client goes away). ?from=N resumes after a dropped
// connection without replaying the whole stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q: %w", q, err))
			return
		}
		from = v
	}
	// Probe for existence before committing the streaming response.
	if _, err := s.sched.Job(id); err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Each wake-up's events go out as one write of one reused buffer,
	// every line the bytes json.Encoder would write (Event.AppendJSON).
	var buf []byte
	for {
		evs, more, err := s.sched.Events(id, from)
		if err != nil {
			return // job vanished mid-stream: just end it
		}
		buf = buf[:0]
		for i := range evs {
			if buf, err = evs[i].AppendJSON(buf); err != nil {
				break
			}
			buf = append(buf, '\n')
			from = evs[i].Seq + 1
		}
		if _, werr := w.Write(buf); werr != nil || err != nil {
			return // client hung up, or an event json cannot encode
		}
		if flusher != nil {
			flusher.Flush()
		}
		if more == nil {
			return // terminal and drained
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	out, info, err := s.sched.Outcome(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	if out == nil {
		WriteError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; results exist only for %s jobs", info.ID, info.State, StateDone))
		return
	}
	WriteJSON(w, http.StatusOK, ResultResponse{Job: info, Outcome: *out})
}

// handleTrace serves a job's flight-recorder timeline as Chrome
// trace_event JSON — save it and open it in chrome://tracing or
// Perfetto, or feed it to svard-trace. Available while the job runs
// (a partial timeline) and after it finishes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, info, err := s.sched.Trace(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", info.ID+"-trace.json"))
	w.WriteHeader(http.StatusOK)
	tr.Write(w)
}

// handleCell serves one raw cached simulation result by its
// content-addressed key (every cell event carries it; Go clients
// derive it with cache.Key). 404 means the cell has never been computed
// and persisted. The key is strictly validated before it goes anywhere
// near the store's filesystem paths: PathValue decodes %2F, so an
// unvalidated "key" could otherwise traverse out of the cache directory.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cache.WellFormedKey(key) {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("malformed cell key %q: want 64 lowercase hex chars (a cache.Key)", key))
		return
	}
	res, ok := s.store.Get(key)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no cached cell for key %s", key))
		return
	}
	WriteJSON(w, http.StatusOK, CellResponse{Key: key, Result: res})
}

// WriteJSON answers status with v as compact JSON: the one encoder of
// both daemons' replies, so a compute reply's sealed entries go out as
// the bytes cache.Seal wrote.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with {"error": err}, every non-2xx JSON body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error()})
}
