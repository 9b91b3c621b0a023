package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"svard/internal/campaign"
	"svard/internal/exec"
	"svard/internal/sim"
)

// ComputeRequest is the body of POST /api/v1/compute — the fabric
// coordinator's unit of dispatch: one leased batch of raw cells,
// computed synchronously through the worker's shared slots and cache.
type ComputeRequest struct {
	Configs []sim.Config `json:"configs"`
}

// ComputeCell reports one cell of a computed batch. Computed means this
// call ran the simulator for the cell; false means the cell was served
// from the cache (or deduplicated onto a computation already in
// flight) — the distinction the fabric's exactly-once attribution is
// built on. A non-empty Error carries a per-cell simulation failure;
// the rest of the batch still completes.
type ComputeCell struct {
	Key      string `json:"key"`
	Label    string `json:"label,omitempty"`
	Computed bool   `json:"computed"`
	Error    string `json:"error,omitempty"`
}

// ComputeResponse is the body POST /api/v1/compute returns.
type ComputeResponse struct {
	Cells    []ComputeCell `json:"cells"`
	Computed int           `json:"computed"`
	Served   int           `json:"served"`
	Failed   int           `json:"failed"`
}

// ComputeBatch runs a batch of raw cells to completion through the
// shared cache and worker slots — the fabric worker's serving surface.
// Batch cells contend for the same global slots as campaign cells, so
// a worker serving both a local sweep and fabric dispatch stays within
// its configured parallelism. Per-cell simulation failures are
// reported in the cell (the batch continues); config validation
// failures, shutdown, and ctx cancellation fail the whole batch.
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
	return exec.MapCtx(ctx, s.workers, len(cfgs), func(i int) (ComputeCell, error) {
		cfg := cfgs[i]
		_, key, computed, err := s.cell.Run(ctx, cfg, nil)
		cell := ComputeCell{Key: key, Label: campaign.CellLabel(cfg)}
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

// handleCompute serves POST /api/v1/compute.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	var req ComputeRequest
	if !decodeBody(w, r, "compute request", &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("compute request has no configs"))
		return
	}
	cells, err := s.sched.ComputeBatch(r.Context(), req.Configs)
	if err != nil {
		switch {
		case errors.Is(err, ErrShuttingDown), r.Context().Err() != nil:
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	resp := ComputeResponse{Cells: cells}
	for _, c := range cells {
		switch {
		case c.Error != "":
			resp.Failed++
		case c.Computed:
			resp.Computed++
		default:
			resp.Served++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
