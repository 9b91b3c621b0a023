// Tests for the fabric worker surface: POST /api/v1/compute runs raw
// cell batches through the shared slots and cache and answers each cell
// with its sealed entry and its Computed/Served attribution — the
// primitive the coordinator's exactly-once accounting is built on.
package server_test

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"svard/internal/cache"
	"svard/internal/server"
	"svard/internal/sim"
)

// TestComputeBatchAttribution: a fresh batch is Computed; the same
// batch again is Served (cache hits), with zero extra simulator calls.
// Every cell carries its sealed entry byte for byte as cache.Seal writes
// it, so it opens against the cell's own key.
func TestComputeBatchAttribution(t *testing.T) {
	var calls atomic.Int64
	counting := func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 2, Sim: counting})
	ctx := context.Background()

	spec := tinySpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.Config
	}

	resp, err := c.Compute(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != len(cfgs) || resp.Served != 0 {
		t.Fatalf("fresh batch: %d cells, served=%d; want %d and 0", len(resp.Cells), resp.Served, len(cfgs))
	}
	for i, cell := range resp.Cells {
		key := cache.Key(cfgs[i])
		if cell.Key != key {
			t.Fatalf("cell %d key %s, want %s (index order must hold)", i, cell.Key, key)
		}
		if !cell.Computed || cell.Error != "" {
			t.Fatalf("fresh cell %d: %+v", i, cell)
		}
		want, _ := fakeSim(cfgs[i])
		sealed, err := cache.Seal(key, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cell.Entry, sealed) {
			t.Fatalf("cell %d entry:\ngot  %s\nwant %s", i, cell.Entry, sealed)
		}
	}
	if got := calls.Load(); got != int64(len(cfgs)) {
		t.Fatalf("simulator ran %d times, want %d", got, len(cfgs))
	}

	again, err := c.Compute(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if again.Served != len(cfgs) {
		t.Fatalf("replayed batch: served=%d, want %d", again.Served, len(cfgs))
	}
	for i, cell := range again.Cells {
		if cell.Computed || !bytes.Equal(cell.Entry, resp.Cells[i].Entry) {
			t.Fatalf("replayed cell %d: computed=%v, entry %s; want served, entry %s", i, cell.Computed, cell.Entry, resp.Cells[i].Entry)
		}
	}
	if got := calls.Load(); got != int64(len(cfgs)) {
		t.Fatalf("replayed batch re-ran the simulator (%d calls)", got)
	}
}

// TestComputeBatchPerCellFailure: one failing cell is reported in place,
// with no entry, while the rest of the batch completes.
func TestComputeBatchPerCellFailure(t *testing.T) {
	failing := func(cfg sim.Config) (sim.Result, error) {
		if cfg.NRH == 64 {
			return sim.Result{}, context.DeadlineExceeded
		}
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 2, Sim: failing})

	jobs, err := tinySpec(64, 128).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]sim.Config, len(jobs))
	nrh64 := 0
	for i, j := range jobs {
		cfgs[i] = j.Config
		if j.Config.NRH == 64 {
			nrh64++
		}
	}
	resp, err := c.Compute(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, cell := range resp.Cells {
		wantErr := cfgs[i].NRH == 64
		if (cell.Error != "") != wantErr || (cell.Entry == nil) != wantErr || cell.Computed == wantErr {
			t.Fatalf("cell %d (nRH %v): %+v", i, cfgs[i].NRH, cell)
		}
		if wantErr {
			failed++
		}
	}
	if failed != nrh64 || resp.Served != 0 {
		t.Fatalf("failed=%d served=%d, want %d (the nrh=64 cells) and 0", failed, resp.Served, nrh64)
	}
}

// TestComputeBatchRejectsBadInput: empty batches and invalid configs
// are 400s, not half-run batches.
func TestComputeBatchRejectsBadInput(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: fakeSim})
	ctx := context.Background()

	if _, err := c.Compute(ctx, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty batch: %v, want 400", err)
	}
	bad := sim.DefaultConfig()
	bad.Backend = "lpddr9"
	if _, err := c.Compute(ctx, []sim.Config{bad}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("invalid config: %v, want 400", err)
	}
	// A zero clock used to reach a worker and crash the daemon.
	stopped := sim.DefaultConfig()
	stopped.CPUGHz = 0
	if _, err := c.Compute(ctx, []sim.Config{stopped}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("zero CPU clock: %v, want 400", err)
	}
}
