// End-to-end tests of the campaign service: a real HTTP stack
// (httptest) driven through the typed client, asserting the
// ISSUE-level guarantees — golden determinism over HTTP, exactly-once
// computation across overlapping concurrent jobs, prompt cancellation,
// and graceful shutdown that leaves journals resumable.
package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/server"
	"svard/internal/sim"
	"svard/internal/temporal"
)

// fig12GoldenFile mirrors internal/sim's fixture layout.
type fig12GoldenFile struct {
	Base     sim.Config
	Mixes    [][]string
	NRHs     []float64
	Defenses []string
	Profiles []string
	Cells    []sim.Fig12Cell
}

func goldenSpec(t *testing.T) (campaign.Spec, []sim.Fig12Cell) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "fig12_golden.json"))
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/sim/ -run Golden -update)", err)
	}
	var g fig12GoldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return campaign.Spec{
		Figures:  []string{campaign.Fig12},
		Base:     g.Base,
		Mixes:    g.Mixes,
		NRHs:     g.NRHs,
		Defenses: g.Defenses,
		Profiles: g.Profiles,
	}, g.Cells
}

// newService stands up a server over a store in dir and returns a
// client against an httptest listener.
func newService(t *testing.T, dir string, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	store, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, client.New(ts.URL)
}

// tinySpec is a 5-cell Fig. 12 campaign (1 baseline + 2 nRH x 2 Svärd)
// per nRH pair, for fake-sim tests.
func tinySpec(nrhs ...float64) campaign.Spec {
	if len(nrhs) == 0 {
		nrhs = []float64{64, 128}
	}
	base := sim.DefaultConfig()
	base.Cores = 2
	return campaign.Spec{
		Figures:  []string{campaign.Fig12},
		Base:     base,
		Mixes:    [][]string{{"mcf06", "lbm06"}},
		NRHs:     nrhs,
		Defenses: []string{"para"},
		Profiles: []string{"S0"},
	}
}

// fakeSim derives a deterministic result from the config without
// simulating anything.
func fakeSim(cfg sim.Config) (sim.Result, error) {
	ipc := make([]float64, cfg.Cores)
	for i := range ipc {
		ipc[i] = 1 + float64(i)*0.25 + cfg.NRH/1e6
	}
	return sim.Result{IPC: ipc, Cycles: 1000, Finished: true}, nil
}

// waitDone polls a job until its Done count reaches n (progress made
// server-side, journaled and observed).
func waitDone(t *testing.T, c *client.Client, id string, n int) server.JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Done >= n {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %d/%d done", id, info.Done, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func scrapeMetrics(t *testing.T, c *client.Client) string {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServiceGoldenDeterminism is the tentpole acceptance criterion: a
// campaign submitted over HTTP — scheduled, pooled, cached, folded, and
// fetched back over the API — yields Fig. 12 cells bit-identical to the
// golden fixture a direct serial sim.RunFig12 recorded.
func TestServiceGoldenDeterminism(t *testing.T) {
	spec, golden := goldenSpec(t)
	_, c := newService(t, t.TempDir(), server.Config{Workers: 4})
	ctx := context.Background()

	info, err := c.Submit(ctx, spec, "golden", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != server.StateQueued && info.State != server.StateRunning {
		t.Fatalf("fresh job state = %s", info.State)
	}

	var cellEvents int
	final, err := c.Wait(ctx, info.ID, func(ev server.Event) error {
		if ev.Type == "cell" {
			cellEvents++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if cellEvents != info.Total || final.Done != info.Total {
		t.Errorf("progress stream reported %d cells, job done=%d, want %d", cellEvents, final.Done, info.Total)
	}

	res, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Fig12, golden) {
		t.Fatalf("cells served over HTTP differ from the golden fixture:\ngot  %+v\nwant %+v", res.Fig12, golden)
	}

	// Raw-cell endpoint: any job config's key resolves to the exact
	// result the simulator produced for it.
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := jobs[0].Config
	cell, err := c.Cell(ctx, cache.Key(cfg))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cell, direct) {
		t.Errorf("raw cell over HTTP differs from direct sim.Run:\ngot  %+v\nwant %+v", cell, direct)
	}
}

// TestCrossJobDedup: two clients concurrently submit overlapping specs;
// every shared cell computes exactly once, proven by per-key compute
// counters and the cache's miss accounting in /metrics.
func TestCrossJobDedup(t *testing.T) {
	var mu sync.Mutex
	computes := map[string]int{}
	slowCounting := func(cfg sim.Config) (sim.Result, error) {
		key := cache.Key(cfg)
		mu.Lock()
		computes[key]++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // hold the overlap window open
		return fakeSim(cfg)
	}

	_, c := newService(t, t.TempDir(), server.Config{Workers: 4, MaxActiveJobs: 4, Sim: slowCounting})
	ctx := context.Background()

	// Specs share the baseline and the nrh=128 cells.
	specA, specB := tinySpec(64, 128), tinySpec(128, 256)
	jobsA, _ := specA.Jobs()
	jobsB, _ := specB.Jobs()
	uniq := map[string]bool{}
	for _, j := range append(jobsA, jobsB...) {
		uniq[cache.Key(j.Config)] = true
	}
	if len(uniq) >= len(jobsA)+len(jobsB) {
		t.Fatalf("test specs do not overlap: %d unique of %d total", len(uniq), len(jobsA)+len(jobsB))
	}

	infoA, err := c.Submit(ctx, specA, "client-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := c.Submit(ctx, specB, "client-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{infoA.ID, infoB.ID} {
		final, err := c.Wait(ctx, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(computes) != len(uniq) {
		t.Errorf("computed %d distinct keys, want %d", len(computes), len(uniq))
	}
	for key, n := range computes {
		if n != 1 {
			t.Errorf("key %s computed %d times across overlapping jobs, want exactly 1", key[:8], n)
		}
	}
	// The cache counters in /metrics tell the same story: misses equal
	// the unique keys; every overlapping lookup was served as a hit.
	text := scrapeMetrics(t, c)
	if want := "svard_cache_misses_total " + strconv.Itoa(len(uniq)); !strings.Contains(text, want) {
		t.Errorf("metrics missing %q:\n%s", want, text)
	}
}

// TestDuplicateInFlightSubmitCoalesces: resubmitting a spec whose job
// is still in flight returns the same job instead of duplicating work;
// after completion the same spec starts a fresh job.
func TestDuplicateInFlightSubmitCoalesces(t *testing.T) {
	release := make(chan struct{})
	gated := func(cfg sim.Config) (sim.Result, error) {
		<-release
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: gated})
	ctx := context.Background()

	first, err := c.Submit(ctx, tinySpec(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, tinySpec(), "b", 7)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Errorf("identical in-flight spec got a new job %s, want %s", second.ID, first.ID)
	}
	// The duplicate's higher priority escalates the shared job instead
	// of being silently dropped.
	if second.Priority != 7 {
		t.Errorf("coalesced submit priority = %d, want escalated to 7", second.Priority)
	}
	close(release)
	if _, err := c.Wait(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}

	third, err := c.Submit(ctx, tinySpec(), "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if third.ID == first.ID {
		t.Error("completed job was reused for a fresh submission")
	}
	if _, err := c.Wait(ctx, third.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunningAndQueued: cancelling a running job returns within
// one cell's latency; cancelling a queued job terminates it without it
// ever running.
func TestCancelRunningAndQueued(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	gated := func(cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, MaxActiveJobs: 1, Sim: gated})
	ctx := context.Background()

	running, err := c.Submit(ctx, tinySpec(64, 128), "running", 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, tinySpec(256, 512), "queued", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started // first cell of the running job is in flight

	// The queued job dies immediately, having never simulated.
	qinfo, err := c.Cancel(ctx, queued.ID, "changed my mind")
	if err != nil {
		t.Fatal(err)
	}
	if qinfo.State != server.StateCanceled {
		t.Errorf("queued job state after cancel = %s", qinfo.State)
	}
	if qinfo.Done != 0 {
		t.Errorf("queued job completed %d cells", qinfo.Done)
	}

	// Cancel the running job, then let its in-flight cell finish: the
	// job must reach canceled without starting another cell.
	if _, err := c.Cancel(ctx, running.ID, "shutting down the experiment"); err != nil {
		t.Fatal(err)
	}
	close(release)
	final, err := c.Wait(ctx, running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCanceled {
		t.Fatalf("running job ended %s, want canceled", final.State)
	}
	if !strings.Contains(final.Error, "shutting down the experiment") {
		t.Errorf("cancel reason lost: %q", final.Error)
	}
	if n := len(started); n > 1 {
		t.Errorf("%d cells started on the cancelled job, want only the in-flight one", n)
	}
	// The result endpoint refuses a cancelled job.
	if _, err := c.Result(ctx, running.ID); err == nil {
		t.Error("result endpoint served a cancelled job")
	}
}

// TestCancelDoesNotPoisonOverlappingJob: job A and job B overlap on a
// cell; A registers the cell's singleflight but is still waiting for
// the one worker slot (held by a hog job) when a client cancels it. B,
// coalesced onto A's flight, must not inherit A's cancellation — it
// retries the cell itself and completes.
func TestCancelDoesNotPoisonOverlappingJob(t *testing.T) {
	hogStarted := make(chan struct{}, 1)
	gate := make(chan struct{})
	gated := func(cfg sim.Config) (sim.Result, error) {
		if cfg.Seed == 2 { // the hog's cells
			select {
			case hogStarted <- struct{}{}:
			default:
			}
			<-gate
		}
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, MaxActiveJobs: 3, Sim: gated})
	ctx := context.Background()

	hogSpec := tinySpec(64)
	hogSpec.Base.Seed = 2 // disjoint keys from A and B
	hog, err := c.Submit(ctx, hogSpec, "hog", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-hogStarted // hog holds the only worker slot

	specA, specB := tinySpec(64, 128), tinySpec(128, 256) // share the baseline cell
	jobA, err := c.Submit(ctx, specA, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // A registers the shared cell's flight, waits for a slot
	jobB, err := c.Submit(ctx, specB, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // B coalesces onto A's flight

	if _, err := c.Cancel(ctx, jobA.ID, "client a left"); err != nil {
		t.Fatal(err)
	}
	close(gate) // hog drains, slot frees

	finalA, err := c.Wait(ctx, jobA.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if finalA.State != server.StateCanceled {
		t.Errorf("job A ended %s, want canceled", finalA.State)
	}
	for _, id := range []string{hog.ID, jobB.ID} {
		final, err := c.Wait(ctx, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone {
			t.Fatalf("job %s ended %s (%s), want done — a neighbour's cancellation leaked",
				id, final.State, final.Error)
		}
	}
}

// TestCancelThenResubmitGetsFreshJob: the documented resume flow —
// cancel a running job, resubmit the same spec — must yield a fresh
// job, not coalesce onto the dying one (whose state lags its
// cancellation by up to one cell's latency).
func TestCancelThenResubmitGetsFreshJob(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	gated := func(cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-gate
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: gated})
	ctx := context.Background()

	first, err := c.Submit(ctx, tinySpec(), "first", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started // first cell in flight
	if _, err := c.Cancel(ctx, first.ID, "restarting"); err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, tinySpec(), "second", 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("resubmit after cancel coalesced onto the dying job")
	}
	close(gate)
	if final, err := c.Wait(ctx, second.ID, nil); err != nil || final.State != server.StateDone {
		t.Fatalf("resubmitted job: state=%v err=%v", final.State, err)
	}
}

// TestTerminalJobRetention: beyond RetainJobs, the oldest finished jobs
// are evicted (404) so the daemon's memory stays bounded.
func TestTerminalJobRetention(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, RetainJobs: 2, Sim: fakeSim})
	ctx := context.Background()

	var ids []string
	for _, nrh := range []float64{64, 128, 256} {
		info, err := c.Submit(ctx, tinySpec(nrh), "r", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, info.ID, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	// Eviction happens when the third job turns terminal, which the
	// client may observe slightly before the scheduler's bookkeeping
	// runs; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Job(ctx, ids[0]); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("oldest terminal job survived past the retention cap")
		}
		time.Sleep(2 * time.Millisecond)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("job table holds %d jobs, want 2 (RetainJobs)", len(jobs))
	}
	// The evicted job's cells still serve from the cache.
	specJobs, _ := tinySpec(64).Jobs()
	if _, err := c.Cell(ctx, cache.Key(specJobs[0].Config)); err != nil {
		t.Errorf("evicted job's cell no longer served: %v", err)
	}
}

// TestPriorityAdmission: with the single admission slot busy, a later
// high-priority submission is admitted before an earlier low-priority
// one.
func TestPriorityAdmission(t *testing.T) {
	release := make(chan struct{})
	admitted := make(chan struct{}, 1)
	gated := func(cfg sim.Config) (sim.Result, error) {
		select {
		case admitted <- struct{}{}:
		default:
		}
		<-release
		return fakeSim(cfg)
	}
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, MaxActiveJobs: 1, Sim: gated})
	ctx := context.Background()

	hog, err := c.Submit(ctx, tinySpec(64), "hog", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-admitted // hog admitted and simulating

	low, err := c.Submit(ctx, tinySpec(128), "low", 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := c.Submit(ctx, tinySpec(256), "high", 5)
	if err != nil {
		t.Fatal(err)
	}

	close(release)
	for _, id := range []string{hog.ID, low.ID, high.ID} {
		final, err := c.Wait(ctx, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
	}

	lowInfo, _ := c.Job(ctx, low.ID)
	highInfo, _ := c.Job(ctx, high.ID)
	if lowInfo.StartedAt == nil || highInfo.StartedAt == nil {
		t.Fatal("missing start times")
	}
	if highInfo.StartedAt.After(*lowInfo.StartedAt) {
		t.Errorf("high-priority job started %v, after low-priority %v",
			highInfo.StartedAt, lowInfo.StartedAt)
	}
}

// TestGracefulShutdownLeavesResumableJournal is the shutdown acceptance
// criterion: shutdown returns within one cell's latency of the
// in-flight cell, and a resubmission of the interrupted spec on a
// fresh service over the same cache directory resumes from the journal
// instead of recomputing.
func TestGracefulShutdownLeavesResumableJournal(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	block := make(chan struct{})
	gatedAfterFirst := func(cfg sim.Config) (sim.Result, error) {
		if calls.Add(1) > 1 {
			<-block // every cell after the first blocks until shutdown
		}
		return fakeSim(cfg)
	}

	svc, c := newService(t, dir, server.Config{Workers: 1, Sim: gatedAfterFirst})
	ctx := context.Background()
	spec := tinySpec(64, 128)

	info, err := c.Submit(ctx, spec, "interrupted", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, info.ID, 1) // first cell journaled and observed

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- svc.Shutdown(sctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown cancel the job context
	close(block)                      // the in-flight cell finishes
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	final, err := c.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCanceled {
		t.Fatalf("job after shutdown = %s, want canceled", final.State)
	}
	if final.Done == 0 {
		t.Error("no cells completed before shutdown; test gated too early")
	}

	// The journal survived under the cache dir.
	journals, err := filepath.Glob(filepath.Join(dir, "campaign-*.journal"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("no campaign journal in %s after shutdown (err=%v)", dir, err)
	}

	// New submissions are refused after shutdown — with 503 (retryable
	// server state), not 400 (malformed request).
	if _, err := c.Submit(ctx, tinySpec(999), "late", 0); err == nil {
		t.Error("shut-down scheduler accepted a submission")
	} else if !strings.Contains(err.Error(), "503") {
		t.Errorf("shutdown submit error = %v, want 503", err)
	}

	// A fresh service over the same directory resumes the campaign:
	// cells completed before shutdown replay from journal + cache.
	var computes atomic.Int64
	counting := func(cfg sim.Config) (sim.Result, error) {
		computes.Add(1)
		return fakeSim(cfg)
	}
	_, c2 := newService(t, dir, server.Config{Workers: 1, Sim: counting})
	info2, err := c2.Submit(ctx, spec, "resumed", 0)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := c2.Wait(ctx, info2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != server.StateDone {
		t.Fatalf("resumed job ended %s: %s", final2.State, final2.Error)
	}
	res, err := c2.Result(ctx, info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != final.Done {
		t.Errorf("resumed job reports %d journaled cells, interrupted run completed %d", res.Resumed, final.Done)
	}
	if got := computes.Load(); got != int64(info.Total-final.Done) {
		t.Errorf("resume recomputed %d cells, want %d (total %d - %d done before shutdown)",
			got, info.Total-final.Done, info.Total, final.Done)
	}
}

// TestEventStreamResumesFromOffset: ?from=N replays only the tail, so a
// reconnecting client does not re-observe completed cells.
func TestEventStreamResumesFromOffset(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: fakeSim})
	ctx := context.Background()
	info, err := c.Submit(ctx, tinySpec(), "stream", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}

	var all []server.Event
	if err := c.Events(ctx, info.ID, 0, func(ev server.Event) error {
		all = append(all, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// queued + running + N cells + done
	if want := info.Total + 3; len(all) != want {
		t.Fatalf("full stream has %d events, want %d", len(all), want)
	}
	for i, ev := range all {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	var tail []server.Event
	if err := c.Events(ctx, info.ID, 3, func(ev server.Event) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(all)-3 || tail[0].Seq != 3 {
		t.Fatalf("tail from=3: %d events starting at %d", len(tail), tail[0].Seq)
	}
}

// TestAPIErrors: the error paths speak JSON with useful statuses.
func TestAPIErrors(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: fakeSim})
	ctx := context.Background()

	if _, err := c.Job(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job error = %v, want 404", err)
	}
	if _, err := c.Cancel(ctx, "job-999", ""); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("cancel unknown job = %v, want 404", err)
	}
	if _, err := c.Cell(ctx, strings.Repeat("ab", 32)); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing cell = %v, want 404", err)
	}

	bad := tinySpec()
	bad.Defenses = []string{"guardian"}
	if _, err := c.Submit(ctx, bad, "bad", 0); err == nil || !strings.Contains(err.Error(), "guardian") {
		t.Errorf("invalid spec error = %v, want defense named", err)
	}

	// An unknown memory backend is a 400 at submit, not a panic (or a
	// failed job) when the sweep later builds its machines.
	badBackend := tinySpec()
	badBackend.Backends = []string{"lpddr5"}
	if _, err := c.Submit(ctx, badBackend, "bad-backend", 0); err == nil ||
		!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "lpddr5") {
		t.Errorf("invalid backend error = %v, want 400 naming lpddr5", err)
	}

	// The two numbers that size the default mix draw are checked before
	// anything is drawn: `{"base":{"Cores":-1}}` used to panic the handler
	// (makeslice) and a huge mix_count to allocate whatever it asked for.
	// So is the product of the axes: a huge population used to expand.
	for _, tc := range []struct {
		spec campaign.Spec
		want string
	}{
		{campaign.Spec{Base: sim.Config{Cores: -1}}, "Cores is -1"},
		{campaign.Spec{Base: tinySpec().Base, MixCount: 1 << 30}, "mix_count is 1073741824"},
		{campaign.Spec{Base: tinySpec().Base, Figures: []string{campaign.Fig12},
			Population: &campaign.PopulationSpec{Seed: 1, Size: 1 << 40}}, "over the limit of 524288"},
	} {
		if _, err := c.Submit(ctx, tc.spec, "undrawable", 0); err == nil ||
			!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("submit error = %v, want 400 saying %q", err, tc.want)
		}
	}

	// A malformed temporal process is a 400 at submit — never a panic in
	// a worker — for every way it can be malformed.
	for name, proc := range map[string]temporal.Spec{
		"zero-epoch":     {EpochCycles: 0, Drift: -0.05},
		"negative-sigma": {EpochCycles: 65536, Sigma: -1},
		"dip-above-one":  {EpochCycles: 65536, DipP: 2, DipFactor: 0.5},
	} {
		badTemporal := tinySpec()
		badTemporal.Figures = []string{campaign.Fig12}
		badTemporal.Temporal = &campaign.TemporalSpec{Process: proc}
		if _, err := c.Submit(ctx, badTemporal, "bad-temporal", 0); err == nil ||
			!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "temporal") {
			t.Errorf("%s: invalid temporal error = %v, want 400 naming temporal", name, err)
		}
	}

	// A running (non-done) job has no result yet: 409, not 200/404.
	gate := make(chan struct{})
	_, c2 := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: func(cfg sim.Config) (sim.Result, error) {
		<-gate
		return fakeSim(cfg)
	}})
	info, err := c2.Submit(ctx, tinySpec(), "pending", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Result(ctx, info.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("pending result error = %v, want 409", err)
	}
	close(gate)
	if _, err := c2.Wait(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredRoutes: the DELETE alias of cancel and the key route are
// gone — the mux answers 405 (the path still serves GET) and 404.
func TestRetiredRoutes(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: fakeSim})
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodDelete, "/api/v1/jobs/job-1", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/v1/key", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, c.BaseURL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestRequestBodyLimit: the two routes that decode a JSON body refuse
// one over the 4 MiB cap with 413 and the usual JSON error body instead
// of buffering whatever a client sends.
func TestRequestBodyLimit(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: fakeSim})
	// Valid JSON all the way to the cap: only the size can be at fault.
	body := `{"name":"` + strings.Repeat("a", 4<<20) + `"}`
	for _, path := range []string{"/api/v1/jobs", "/api/v1/compute"} {
		resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || e.Error == "" {
			t.Errorf("POST %s with a %d-byte body = %d (error %q, decode %v), want 413 with a JSON error",
				path, len(body), resp.StatusCode, e.Error, derr)
		}
	}
}

// TestCellKeyTraversalRejected: the cells endpoint must refuse anything
// that is not a well-formed cache key — PathValue decodes %2F, so an
// unvalidated key would walk filesystem paths outside the cache dir.
func TestCellKeyTraversalRejected(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 1, Sim: fakeSim})
	for _, path := range []string{
		"/api/v1/cells/..%2F..%2F..%2Fetc%2Fpasswd",
		"/api/v1/cells/" + strings.Repeat("ZZ", 32), // right length, not hex
		"/api/v1/cells/abc",                         // too short
	} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestTerminalEventLogCompaction: a terminal job with a large cell log
// keeps only its state events (monotonic seqs, gaps allowed), so dead
// jobs do not hold thousands of events until eviction.
func TestTerminalEventLogCompaction(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 4, Sim: fakeSim})
	ctx := context.Background()

	// > 1024 cells: 600 nRH values -> 1 baseline + 600*2 svard cells.
	nrhs := make([]float64, 600)
	for i := range nrhs {
		nrhs[i] = float64(1000 + i)
	}
	info, err := c.Submit(ctx, tinySpec(nrhs...), "big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}

	var evs []server.Event
	if err := c.Events(ctx, info.ID, 0, func(ev server.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 { // queued, running, done — cell events compacted away
		t.Fatalf("terminal big job retains %d events, want 3 state events", len(evs))
	}
	last := evs[len(evs)-1]
	if last.State != server.StateDone || last.Done != info.Total {
		t.Errorf("terminal event = %+v, want done with %d cells", last, info.Total)
	}
	if last.Seq != info.Total+2 {
		t.Errorf("terminal seq = %d, want %d (numbering monotonic across compaction)", last.Seq, info.Total+2)
	}
}

// TestPopulationCampaignOverHTTP: a Monte Carlo population campaign
// rides the generic submit/schedule/result path end to end — the
// scheduler sizes it from Spec.Jobs, streams per-cell progress, and the
// result endpoint serves confidence bands instead of Fig. 12 cells.
func TestPopulationCampaignOverHTTP(t *testing.T) {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 8_000
	base.WarmupPerCore = 1_000
	spec := campaign.Spec{
		Figures:    []string{campaign.Fig12},
		Base:       base,
		Mixes:      [][]string{{"mcf06", "lbm06"}},
		NRHs:       []float64{64},
		Defenses:   []string{"para"},
		Population: &campaign.PopulationSpec{Seed: 7, Size: 2},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	_, c := newService(t, t.TempDir(), server.Config{Workers: 2})
	ctx := context.Background()
	info, err := c.Submit(ctx, spec, "population", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Total != len(jobs) {
		t.Errorf("job sized at %d cells, want %d", info.Total, len(jobs))
	}
	final, err := c.Wait(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	res, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fig12) != 0 {
		t.Errorf("population campaign served %d Fig12 point cells", len(res.Fig12))
	}
	if len(res.Bands) != 2 { // 1 defense x 1 nRH x {NoSvard, Svard}
		t.Fatalf("bands = %d, want 2", len(res.Bands))
	}
	for _, b := range res.Bands {
		if b.Modules != spec.Population.Size {
			t.Errorf("%s: folded %d modules, want %d", b.Config, b.Modules, spec.Population.Size)
		}
		if !(b.WS.Min <= b.WS.P50 && b.WS.P50 <= b.WS.Max) {
			t.Errorf("%s: WS band unordered: %+v", b.Config, b.WS)
		}
	}
}

// TestTemporalCampaignOverHTTP: a margin-erosion campaign rides the same
// submit/schedule/result path, and the result endpoint returns its
// erosion cells — bit-identical to a direct sim.RunErosionCtx — rather
// than a done job with no figure at all.
func TestTemporalCampaignOverHTTP(t *testing.T) {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.RowsPerBank = 2048
	base.CellsPerRow = 2048
	base.InstrPerCore = 8_000
	base.WarmupPerCore = 1_000
	spec := campaign.Spec{
		Figures:  []string{campaign.Fig12},
		Base:     base,
		Mixes:    [][]string{{"mcf06", "lbm06"}},
		NRHs:     []float64{256, 64},
		Defenses: []string{"para"},
		Temporal: &campaign.TemporalSpec{
			Process:   temporal.Spec{EpochCycles: 65536, Drift: -0.03, Sigma: 0.05},
			Intervals: []uint64{0, 16},
		},
	}
	ctx := context.Background()
	want, err := sim.RunErosionCtx(ctx, sim.ErosionOptions{
		Base:      spec.Base,
		Process:   spec.Temporal.Process,
		Intervals: spec.Temporal.Intervals,
		Mixes:     spec.Mixes,
		NRHs:      spec.NRHs,
		Defenses:  spec.Defenses,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, c := newService(t, t.TempDir(), server.Config{Workers: 2})
	info, err := c.Submit(ctx, spec, "temporal", 0)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	res, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fig12) != 0 || len(res.Bands) != 0 {
		t.Errorf("temporal campaign served %d Fig12 cells and %d bands", len(res.Fig12), len(res.Bands))
	}
	if !reflect.DeepEqual(res.Erosion, want) {
		t.Fatalf("erosion cells over HTTP differ from a direct sim.RunErosionCtx:\ngot  %+v\nwant %+v", res.Erosion, want)
	}
	if res.Computed+res.Served+res.Resumed != res.Total || res.Total != info.Total {
		t.Errorf("attribution: computed %d + served %d + resumed %d != total %d (job sized %d)",
			res.Computed, res.Served, res.Resumed, res.Total, info.Total)
	}
}

// TestHealthzAndMetrics: the observability endpoints expose the
// scheduler and cache counters the ISSUE names.
func TestHealthzAndMetrics(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 2, Sim: fakeSim})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := c.Submit(ctx, tinySpec(), "metrics", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}

	text := scrapeMetrics(t, c)
	n := strconv.Itoa(info.Total)
	for _, series := range []string{
		`svard_cache_hits_total{layer="mem"}`,
		`svard_cache_hits_total{layer="disk"}`,
		`svard_cache_hits_total{layer="dedup"}`,
		"svard_cache_misses_total " + n,
		"svard_cache_writes_total " + n,
		"svard_cache_entries " + n,
		"svard_cache_disk_bytes",
		`svard_jobs{state="done"} 1`,
		"svard_queue_depth 0",
		"svard_workers 2",
		"svard_cells_completed_total " + n,
		"svard_cells_per_second",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q:\n%s", series, text)
		}
	}
}
