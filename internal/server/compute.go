package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"svard/internal/cache"
	"svard/internal/exec"
	"svard/internal/obs"
	"svard/internal/sim"
)

// ComputeRequest is the body of POST /api/v1/compute — the fabric
// coordinator's unit of dispatch: one leased batch of raw cells,
// computed synchronously through the worker's shared slots and cache.
type ComputeRequest struct {
	Configs []sim.Config `json:"configs"`
}

// ComputeCell reports one cell of a computed batch. Entry is the cell's
// sealed cache entry (the exact cache.Seal bytes): the only way a result
// reaches the fabric coordinator, which opens it against its own key for
// the cell. Computed means this call ran the simulator for the cell;
// false means it was served from the cache (or deduplicated onto a
// computation in flight) — what the fabric's exactly-once attribution is
// built on. A non-empty Error carries a per-cell failure and no Entry;
// the rest of the batch still completes.
type ComputeCell struct {
	Key      string          `json:"key"`
	Computed bool            `json:"computed"`
	Error    string          `json:"error,omitempty"`
	Entry    json.RawMessage `json:"entry,omitempty"`
}

// ComputeResponse is the body POST /api/v1/compute returns. Served
// counts the cells answered without running the simulator.
type ComputeResponse struct {
	Cells  []ComputeCell `json:"cells"`
	Served int           `json:"served"`
}

// ComputeBatch runs a batch of raw cells to completion through the
// shared cache and worker slots — the fabric worker's serving surface.
// Batch cells contend for the same global slots as campaign cells, so
// a worker serving both a local sweep and fabric dispatch stays within
// its configured parallelism. Per-cell simulation failures are
// reported in the cell (the batch continues); config validation
// failures, shutdown, and ctx cancellation fail the whole batch, and so
// does a cell whose simulator panics (an *exec.PanicError). Each cell
// runs under a recorder of its own, and what the batch's cells counted
// joins the /metrics rollups.
func (s *Scheduler) ComputeBatch(ctx context.Context, cfgs []sim.Config) ([]ComputeCell, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrShuttingDown
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("config %d: %w", i, err)
		}
	}
	recs := make([]obs.Recorder, len(cfgs))
	defer s.addBatch(recs)
	return exec.MapCtx(ctx, s.workers, len(cfgs), func(i int) (ComputeCell, error) {
		res, key, computed, err := s.cell.Run(ctx, cfgs[i], &recs[i])
		cell := ComputeCell{Key: key}
		if err == nil {
			cell.Entry, err = cache.Seal(key, res)
		}
		if err != nil {
			if ctx.Err() != nil {
				return cell, context.Cause(ctx)
			}
			cell.Error = err.Error()
			return cell, nil
		}
		cell.Computed = computed
		s.cellsDone.Add(1)
		return cell, nil
	})
}

// handleCompute serves POST /api/v1/compute. A batch the worker could not
// compute because a cell panicked is a 500 whose body names the panic
// value; the stack goes to the log.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	var req ComputeRequest
	if !DecodeBody(w, r, maxRequestBody, "compute request", &req) {
		return
	}
	if len(req.Configs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("compute request has no configs"))
		return
	}
	cells, err := s.sched.ComputeBatch(r.Context(), req.Configs)
	if err != nil {
		WriteError(w, StatusOf(r, err), clientError("compute", err))
		return
	}
	resp := ComputeResponse{Cells: cells}
	for _, c := range cells {
		if c.Error == "" && !c.Computed {
			resp.Served++
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}
