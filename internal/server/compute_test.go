// Tests for the fabric worker surface: POST /api/v1/compute runs raw
// cell batches through the shared slots and cache and answers each cell
// with its sealed entry and its Computed/Served attribution — the
// primitive the coordinator's exactly-once accounting is built on.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svard/internal/cache"
	"svard/internal/server"
	"svard/internal/sim"
	"svard/internal/temporal"
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

// TestComputeBatchSurvivesPanic: a batch whose simulator panics gets an
// error response naming the panic, the daemon lives on, the panicked
// cell's key and worker slot are released (the same batch again fails
// the same way instead of hanging), and a valid batch then computes.
func TestComputeBatchSurvivesPanic(t *testing.T) {
	panicking := func(cfg sim.Config) (sim.Result, error) {
		if cfg.NRH == 64 {
			panic("simulator exploded")
		}
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: panicking})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bad, good := sim.DefaultConfig(), sim.DefaultConfig()
	bad.Cores, bad.Mix, bad.NRH = 1, []string{"mcf06"}, 64
	good.Cores, good.Mix, good.NRH = 1, []string{"mcf06"}, 128

	for range 2 {
		if _, err := c.Compute(ctx, []sim.Config{bad}); err == nil || !strings.Contains(err.Error(), "simulator exploded") {
			t.Fatalf("a panicking batch: %v, want an error naming the panic", err)
		}
	}
	resp, err := c.Compute(ctx, []sim.Config{good})
	if err != nil || len(resp.Cells) != 1 || resp.Cells[0].Error != "" || !resp.Cells[0].Computed {
		t.Fatalf("a valid batch after the panic: %+v, %v", resp, err)
	}
}

// TestComputeBatchPanicIs500: a cell whose simulator panics is a fault of
// the worker, so the batch is a 500 (which a coordinator and a client's
// retry policy read as one), not a 400. The body names the panic value;
// the stack goes to the log, not to the caller.
func TestComputeBatchPanicIs500(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	panicking := func(sim.Config) (sim.Result, error) { panic("simulator exploded") }
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: panicking})
	cfg := sim.DefaultConfig()
	cfg.Cores, cfg.Mix = 1, []string{"mcf06"}
	_, err := c.Compute(context.Background(), []sim.Config{cfg})
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "simulator exploded") {
		t.Fatalf("a panicking batch: %v, want a 500 naming the panic", err)
	}
	if strings.Contains(err.Error(), "goroutine ") {
		t.Errorf("the reply carries the stack: %v", err)
	}
	if l := logged.String(); !strings.Contains(l, "simulator exploded") || !strings.Contains(l, "goroutine ") {
		t.Errorf("the log lacks the panic and its stack:\n%s", l)
	}
}

// TestPanickingJobReportsTheValue: a campaign job whose simulator panics
// fails as a compute batch does: the job's error, as GET and the event
// stream carry it, names the panic value, and the stack goes to the log.
func TestPanickingJobReportsTheValue(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	panicking := func(sim.Config) (sim.Result, error) { panic("simulator exploded") }
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: panicking})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, tinySpec(), "panicking", 0)
	if err != nil {
		t.Fatal(err)
	}
	var last server.Event
	info, err = c.Wait(ctx, info.ID, func(ev server.Event) error { last = ev; return nil })
	if info.State != server.StateFailed {
		t.Fatalf("job %s, %v; want failed", info.State, err)
	}
	for what, msg := range map[string]string{"job": info.Error, "final event": last.Error} {
		if !strings.Contains(msg, "simulator exploded") || strings.Contains(msg, "goroutine ") {
			t.Errorf("%s error %q: want the panic value without the stack", what, msg)
		}
	}
	if l := logged.String(); !strings.Contains(l, "simulator exploded") || !strings.Contains(l, "goroutine ") {
		t.Errorf("the log lacks the panic and its stack:\n%s", l)
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

// TestUnrunnableConfigsAre400s: a config Validate refuses is a 400 that
// names the field, whether it arrives as a submitted campaign's base
// (Spec.Plan) or as a one-cell compute batch, and it never reaches a
// worker. So is a body that sets a field the config no longer has: Core
// (the core is Table 4's) or NoSkip (cells run on the event engine); the
// Core rows send what once failed Validate. The service runs the real
// simulator: a zero-way LLC used to divide by zero inside a worker
// goroutine and take the daemon down, so the same daemon then computes a
// valid cell. (A NaN or infinite WindowScale cannot be sent: JSON has no
// such number.)
func TestUnrunnableConfigsAre400s(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1})
	ctx := context.Background()
	cell := sim.DefaultConfig()
	cell.Cores, cell.Mix = 1, []string{"mcf06"}
	cell.RowsPerBank, cell.CellsPerRow = 2048, 2048
	cell.InstrPerCore, cell.WarmupPerCore = 2_000, 400

	const removedCore, removedNoSkip = `unknown field "Core"`, `unknown field "NoSkip"`
	for _, tc := range []struct {
		name    string
		breakIt func(*sim.Config) // nil: member breaks the config
		member  string            // a JSON member the config's object gains
		want    string
	}{
		{"zero-llc-ways", nil, `"Core":{"LLCWays":0}`, removedCore},
		{"negative-llc-ways", nil, `"Core":{"LLCWays":-2}`, removedCore},
		{"negative-window", nil, `"Core":{"Window":-1}`, removedCore},
		{"negative-mshrs", nil, `"Core":{"MSHRs":-1}`, removedCore},
		{"zero-issue-width", nil, `"Core":{"IssueWidth":0}`, removedCore},
		{"zero-window", nil, `"Core":{"Window":0}`, removedCore},
		{"zero-mshrs", nil, `"Core":{"MSHRs":0}`, removedCore},
		{"llc-below-ways", nil, `"Core":{"LLCBytes":100}`, removedCore},
		{"huge-llc", nil, `"Core":{"LLCBytes":1073741824}`, removedCore},
		{"huge-window", nil, `"Core":{"Window":1048576}`, removedCore},
		{"huge-mshrs", nil, `"Core":{"MSHRs":1048576}`, removedCore},
		{"noskip", nil, `"NoSkip":true`, removedNoSkip},
		{"zero-max-cycles", func(c *sim.Config) { c.MaxCycles = 0 }, "", "MaxCycles is 0"},
		{"huge-rows", func(c *sim.Config) { c.RowsPerBank = 1 << 24 }, "", "RowsPerBank is 16777216"},
		{"huge-cells", func(c *sim.Config) { c.CellsPerRow = 1 << 24 }, "", "CellsPerRow is 16777216"},
		{"too-many-epochs", func(c *sim.Config) { c.Temporal = &temporal.Spec{EpochCycles: 1000} }, "", "is 80000 epochs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, bad := tinySpec(), cell
			var submit, compute any
			if tc.breakIt != nil {
				tc.breakIt(&spec.Base)
				tc.breakIt(&bad)
				submit, compute = server.SubmitRequest{Name: tc.name, Spec: spec}, server.ComputeRequest{Configs: []sim.Config{bad}}
			} else {
				// A repeated key overrides: the spec's second "base" is the
				// broken one.
				submit = map[string]any{"name": tc.name, "spec": withMember(t, spec, `"base":`+string(withMember(t, spec.Base, tc.member)))}
				compute = map[string]any{"configs": []json.RawMessage{withMember(t, bad, tc.member)}}
			}
			if err := c.Call(ctx, http.MethodPost, "/api/v1/jobs", submit, &server.JobInfo{}); err == nil ||
				!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("submit: %v, want 400 saying %q", err, tc.want)
			}
			if err := c.Call(ctx, http.MethodPost, "/api/v1/compute", compute, &server.ComputeResponse{}); err == nil ||
				!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("compute: %v, want 400 saying %q", err, tc.want)
			}
		})
	}
	resp, err := c.Compute(ctx, []sim.Config{cell})
	if err != nil || len(resp.Cells) != 1 || resp.Cells[0].Error != "" || !resp.Cells[0].Computed {
		t.Fatalf("a valid cell after the rejections: %+v, %v", resp, err)
	}
}

// withMember is the JSON object v encodes to with member appended, so
// that it overrides a field of the same name.
func withMember(t *testing.T, v any, member string) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(b[:len(b)-1], ','), member+"}"...)
}
