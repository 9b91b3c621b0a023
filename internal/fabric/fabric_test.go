// Tests of the distributed campaign fabric against real HTTP stacks:
// exactly-once attribution across worker failures, lease expiry and
// stale completions, journal-based coordinator restart, and the chaos
// end-to-end — a golden sweep sharded across two workers staying
// byte-identical while one worker is killed mid-campaign and the
// remote cache serves a 5xx/truncated/corrupt mix.
package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/fabric"
	"svard/internal/faultinject"
	"svard/internal/server"
	"svard/internal/sim"
)

// fastRetry keeps test-time backoff in the milliseconds.
func fastRetry() client.Policy {
	return client.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 1}
}

// fakeSim derives a deterministic result from the config without
// simulating anything (mirrors the server test harness).
func fakeSim(cfg sim.Config) (sim.Result, error) {
	ipc := make([]float64, cfg.Cores)
	for i := range ipc {
		ipc[i] = 1 + float64(i)*0.25 + cfg.NRH/1e6
	}
	return sim.Result{IPC: ipc, Cycles: 1000, Finished: true}, nil
}

// tinySpec is the 5-cell Fig. 12 campaign the server tests use.
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

// newCoordinator stands up a coordinator over a fresh store and serves
// its handler, returning the coordinator and its base URL.
func newCoordinator(t *testing.T, dir string, cfg fabric.Config) (*fabric.Coordinator, string) {
	t.Helper()
	store, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = fastRetry()
	}
	coord, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return coord, ts.URL
}

// newWorker stands up a svard-served worker over its own store. When
// remote is non-nil it becomes the store's remote cache layer. The
// listener is wrapped with the faultinject kill switch so tests can
// sever the worker mid-run.
func newWorker(t *testing.T, runner sim.Runner, remote cache.Remote) (*httptest.Server, *faultinject.Listener, *cache.Store) {
	t.Helper()
	store, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if remote != nil {
		store.SetRemote(remote, 5*time.Second)
	}
	svc, err := server.New(server.Config{Store: store, Workers: 4, Sim: runner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(svc.Handler())
	lst := faultinject.Wrap(ts.Listener)
	ts.Listener = lst
	ts.Start()
	t.Cleanup(func() {
		if !lst.Severed() {
			ts.Close()
		}
	})
	return ts, lst, store
}

// register announces a worker to the coordinator directly (tests that
// do not need heartbeats).
func register(t *testing.T, coordURL, name, workerURL string) {
	t.Helper()
	b, _ := json.Marshal(fabric.RegisterRequest{Name: name, URL: workerURL})
	resp, err := http.Post(coordURL+"/api/v1/workers", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: %d", name, resp.StatusCode)
	}
}

// startAgent runs a worker's heartbeat loop until the test (or the
// returned cancel) stops it.
func startAgent(t *testing.T, coordURL, name, workerURL string, beat time.Duration) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	a := &fabric.Agent{Fabric: coordURL, Advertise: workerURL, Name: name, Heartbeat: beat}
	go func() {
		defer close(done)
		a.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

// mustJSON marshals for byte-level figure comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// localReference folds the same spec through a plain local engine over
// a fresh store — the bit-identity baseline.
func localReference(t *testing.T, spec campaign.Spec, runner sim.Runner) *campaign.Outcome {
	t.Helper()
	store, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{Store: store, Workers: 2, Sim: runner}
	out, err := eng.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFabricShardsAcrossWorkers: a clean two-worker run computes every
// cell exactly once across the fleet and folds bit-identically to a
// local engine run.
func TestFabricShardsAcrossWorkers(t *testing.T) {
	var w1calls, w2calls atomic.Int64
	ts1, _, _ := newWorker(t, func(cfg sim.Config) (sim.Result, error) { w1calls.Add(1); return fakeSim(cfg) }, nil)
	ts2, _, _ := newWorker(t, func(cfg sim.Config) (sim.Result, error) { w2calls.Add(1); return fakeSim(cfg) }, nil)

	coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{
		BatchSize: 2, LeaseTTL: 5 * time.Second, MinWorkers: 2, Logf: t.Logf,
	})
	register(t, coordURL, "w1", ts1.URL)
	register(t, coordURL, "w2", ts2.URL)

	spec := tinySpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	total := len(jobs)

	out, err := coord.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != total || out.Computed != total || out.Served != 0 || out.Resumed != 0 {
		t.Fatalf("attribution total=%d computed=%d served=%d resumed=%d, want %d/%d/0/0",
			out.Total, out.Computed, out.Served, out.Resumed, total, total)
	}
	if got := w1calls.Load() + w2calls.Load(); got != int64(total) {
		t.Fatalf("fleet ran the simulator %d times for %d cells (a cell was computed twice or lost)", got, total)
	}
	if w1calls.Load() == 0 || w2calls.Load() == 0 {
		t.Fatalf("work was not sharded: w1=%d w2=%d", w1calls.Load(), w2calls.Load())
	}
	if out.Dispatch.Workers != 2 {
		t.Fatalf("dispatch saw %d workers, want 2", out.Dispatch.Workers)
	}

	ref := localReference(t, spec, fakeSim)
	if !bytes.Equal(mustJSON(t, out.Fig12), mustJSON(t, ref.Fig12)) {
		t.Fatal("fabric fold differs from local engine fold")
	}
}

// TestWorkerDiesMidBatch: severing a worker mid-compute re-dispatches
// its cells; the campaign completes with exactly-once attribution and
// an identical fold.
func TestWorkerDiesMidBatch(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	slowSim := func(cfg sim.Config) (sim.Result, error) {
		once.Do(func() { close(started) })
		time.Sleep(150 * time.Millisecond)
		return fakeSim(cfg)
	}
	var w2calls atomic.Int64
	ts1, lst1, _ := newWorker(t, slowSim, nil)
	ts2, _, _ := newWorker(t, func(cfg sim.Config) (sim.Result, error) { w2calls.Add(1); return fakeSim(cfg) }, nil)

	coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{
		BatchSize: 2, LeaseTTL: 300 * time.Millisecond, MinWorkers: 2, MaxCellAttempts: 8, Logf: t.Logf,
	})
	cancel1 := startAgent(t, coordURL, "w1", ts1.URL, 50*time.Millisecond)
	startAgent(t, coordURL, "w2", ts2.URL, 50*time.Millisecond)

	go func() {
		<-started
		cancel1() // heartbeats stop...
		lst1.Sever()
	}()

	spec := tinySpec()
	jobs, _ := spec.Jobs()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := coord.RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Computed + out.Served + out.Resumed; got != len(jobs) {
		t.Fatalf("attribution %d+%d+%d != %d cells", out.Computed, out.Served, out.Resumed, len(jobs))
	}
	if out.Dispatch.Redispatched == 0 {
		t.Fatal("the killed worker's batch was never re-dispatched")
	}
	if w2calls.Load() == 0 {
		t.Fatal("the surviving worker computed nothing")
	}
	ref := localReference(t, spec, fakeSim)
	if !bytes.Equal(mustJSON(t, out.Fig12), mustJSON(t, ref.Fig12)) {
		t.Fatal("fold after worker death differs from local engine fold")
	}
}

// TestStaleCompletionAcceptedAsServed: a worker that outlives its lease
// (no heartbeats) still gets its delivery accepted — but as Served,
// never Computed, so re-dispatch races can never double-count.
func TestStaleCompletionAcceptedAsServed(t *testing.T) {
	gate := make(chan struct{})
	gatedSim := func(cfg sim.Config) (sim.Result, error) {
		<-gate
		return fakeSim(cfg)
	}
	ts1, _, _ := newWorker(t, gatedSim, nil)

	coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{
		BatchSize: 16, LeaseTTL: 120 * time.Millisecond, MaxCellAttempts: 50, Logf: t.Logf,
	})
	register(t, coordURL, "w1", ts1.URL) // no agent: the lease will expire

	// Release the gate only after the lease must have expired.
	go func() {
		time.Sleep(400 * time.Millisecond)
		close(gate)
	}()

	spec := tinySpec()
	jobs, _ := spec.Jobs()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := coord.RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatch.ExpiredLeases == 0 {
		t.Fatal("the lease never expired; the test proved nothing")
	}
	if out.Dispatch.AcceptedLate != len(jobs) {
		t.Fatalf("accepted late %d cells, want %d", out.Dispatch.AcceptedLate, len(jobs))
	}
	if out.Computed != 0 || out.Served != len(jobs) {
		t.Fatalf("stale completions attributed computed=%d served=%d, want 0/%d", out.Computed, out.Served, len(jobs))
	}
}

// TestCoordinatorRestartResumes: a coordinator killed mid-campaign
// resumes from the campaign journal — journaled cells are never
// re-dispatched.
func TestCoordinatorRestartResumes(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	partialSim := func(cfg sim.Config) (sim.Result, error) {
		if calls.Add(1) > 3 {
			<-gate
		}
		return fakeSim(cfg)
	}
	ts1, _, _ := newWorker(t, partialSim, nil)

	dir := t.TempDir()
	spec := tinySpec(64, 128, 256)
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 5 {
		t.Fatalf("spec too small to interrupt meaningfully: %d jobs", len(jobs))
	}

	coord1, coordURL1 := newCoordinator(t, dir, fabric.Config{
		BatchSize: 1, LeaseTTL: 5 * time.Second, Logf: t.Logf,
	})
	register(t, coordURL1, "w1", ts1.URL)

	// Cancel the first run once three cells are journaled (the fourth
	// compute is gated).
	ctx1, cancel1 := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for calls.Load() < 4 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		cancel1()
	}()
	if _, err := coord1.RunCtx(ctx1, spec); err == nil {
		t.Fatal("interrupted run reported success")
	}
	close(gate) // let the in-flight cell finish so the worker drains

	coord2, coordURL2 := newCoordinator(t, dir, fabric.Config{
		BatchSize: 1, LeaseTTL: 5 * time.Second, Resume: true, Logf: t.Logf,
	})
	register(t, coordURL2, "w1", ts1.URL)
	out, err := coord2.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != 3 {
		t.Fatalf("resumed %d cells, want 3 (the journaled prefix)", out.Resumed)
	}
	if got := out.Computed + out.Served + out.Resumed; got != len(jobs) {
		t.Fatalf("attribution %d+%d+%d != %d cells", out.Computed, out.Served, out.Resumed, len(jobs))
	}
	ref := localReference(t, spec, fakeSim)
	if !bytes.Equal(mustJSON(t, out.Fig12), mustJSON(t, ref.Fig12)) {
		t.Fatal("resumed fold differs from local engine fold")
	}
}

// TestChaosGoldenByteIdentical is the acceptance end-to-end: a Fig. 12
// sweep sharded across two workers stays byte-identical to its reference
// while one worker is killed mid-campaign and every remote-cache exchange
// risks a 5xx, truncated, or corrupted response — and the attribution
// shows no cell computed twice and no cell lost. The seeded cases replay
// eight fault schedules on the fake simulator, each killing the worker at
// a different call, against a local fold; the golden case runs the
// committed fixture on the real simulator under schedule 99.
func TestChaosGoldenByteIdentical(t *testing.T) {
	spec := tinySpec(64, 128, 256, 512, 1024, 2048, 4096, 8192)
	want := localReference(t, spec, fakeSim).Fig12
	// A few milliseconds per cell keep the kill inside the campaign.
	slowFake := func(cfg sim.Config) (sim.Result, error) {
		time.Sleep(5 * time.Millisecond)
		return fakeSim(cfg)
	}
	for i, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 34} {
		killAt := int64(1 + i%4)
		t.Run(fmt.Sprintf("seed=%d/kill=%d", seed, killAt), func(t *testing.T) {
			chaosRun(t, spec, seed, killAt, slowFake, want)
		})
	}
	t.Run("golden/seed=99", func(t *testing.T) {
		if testing.Short() {
			t.Skip("chaos e2e runs real simulations")
		}
		spec, golden := goldenSpec(t)
		chaosRun(t, spec, 99, 3, sim.Run, golden)
	})
}

// chaosRun shards spec across two workers running run, under the fault
// schedule seed, severs the first worker at its killAtCall-th simulation,
// and checks the fold against golden.
func chaosRun(t *testing.T, spec campaign.Spec, seed uint64, killAtCall int64, run sim.Runner, golden []sim.Fig12Cell) {
	t.Helper()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{
		BatchSize: 3, LeaseTTL: 500 * time.Millisecond, MinWorkers: 2, MaxCellAttempts: 10, Sim: run, Logf: t.Logf,
	})

	// Both workers publish and fetch results through the coordinator's
	// object store — through a transport that injects a deterministic
	// mix of 5xx, truncated, and corrupted responses.
	faulty := &faultinject.Transport{Plan: faultinject.Plan{
		Seed: seed, Err5xx: 0.25, Truncate: 0.15, Corrupt: 0.15,
	}}
	remote := func() cache.Remote {
		r := client.NewCacheRemote(coordURL, fastRetry())
		r.HTTP = &http.Client{Transport: faulty}
		return r
	}

	var w1calls atomic.Int64
	killReady := make(chan struct{})
	var killOnce sync.Once
	w1sim := func(cfg sim.Config) (sim.Result, error) {
		if w1calls.Add(1) >= killAtCall {
			killOnce.Do(func() { close(killReady) })
		}
		return run(cfg)
	}
	ts1, lst1, _ := newWorker(t, w1sim, remote())
	ts2, _, _ := newWorker(t, run, remote())

	cancel1 := startAgent(t, coordURL, "w1", ts1.URL, 80*time.Millisecond)
	startAgent(t, coordURL, "w2", ts2.URL, 80*time.Millisecond)

	go func() {
		<-killReady
		cancel1()
		lst1.Sever()
		t.Log("chaos: worker w1 severed mid-campaign")
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, err := coord.RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// No cell lost, none double-counted.
	if got := out.Computed + out.Served + out.Resumed; got != len(jobs) || out.Total != len(jobs) {
		t.Fatalf("attribution computed=%d served=%d resumed=%d total=%d, want sum %d",
			out.Computed, out.Served, out.Resumed, out.Total, len(jobs))
	}
	if out.Computed > len(jobs) {
		t.Fatalf("computed=%d exceeds %d cells", out.Computed, len(jobs))
	}

	// The worker actually died mid-run and faults actually flew.
	if !lst1.Severed() {
		t.Fatal("w1 was never severed; the campaign finished too fast to test anything")
	}
	if st := faulty.Stats(); st.Faults() == 0 {
		t.Fatalf("fault injector never fired: %v", st)
	} else {
		t.Logf("chaos: %v; dispatch: %v", st, out.Dispatch)
	}

	// And for all that: byte-identical figures.
	if !bytes.Equal(mustJSON(t, out.Fig12), mustJSON(t, golden)) {
		t.Fatal("chaos fold differs from the golden fixture")
	}
}

// TestSickWorker: a worker whose agent keeps heartbeating while its
// compute endpoint answers 500 beside one healthy worker. Each heartbeat
// makes it eligible again, and each lease it takes costs at most one
// retry budget of requests before it is demoted and its cells move on:
// the campaign completes, folds like a local run, and the sick worker
// never simulates.
func TestSickWorker(t *testing.T) {
	var sickSims, computeReqs atomic.Int64
	sickWorker, _, _ := newWorker(t, func(cfg sim.Config) (sim.Result, error) {
		sickSims.Add(1)
		return fakeSim(cfg)
	}, nil)
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/compute" {
			computeReqs.Add(1)
			http.Error(w, `{"error":"worker is sick"}`, http.StatusInternalServerError)
			return
		}
		sickWorker.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(sick.Close)
	// The healthy worker is slow enough that the sick one heartbeats its
	// way back to eligibility several times during the campaign.
	healthy, _, _ := newWorker(t, func(cfg sim.Config) (sim.Result, error) {
		time.Sleep(20 * time.Millisecond)
		return fakeSim(cfg)
	}, nil)

	retry := fastRetry()
	coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{
		BatchSize: 2, LeaseTTL: 2 * time.Second, MinWorkers: 2, Retry: retry, Sim: fakeSim, Logf: t.Logf,
	})
	startAgent(t, coordURL, "sick", sick.URL, 20*time.Millisecond)
	startAgent(t, coordURL, "healthy", healthy.URL, 20*time.Millisecond)

	spec := tinySpec(64, 128, 256, 512, 1024, 2048, 4096, 8192)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := coord.RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Computed+out.Served+out.Resumed != out.Total {
		t.Errorf("attribution computed=%d served=%d resumed=%d does not add up to %d", out.Computed, out.Served, out.Resumed, out.Total)
	}
	if !bytes.Equal(mustJSON(t, out.Fig12), mustJSON(t, localReference(t, spec, fakeSim).Fig12)) {
		t.Error("fold differs from the local reference")
	}
	if n := sickSims.Load(); n != 0 {
		t.Errorf("the sick worker simulated %d cells", n)
	}
	n, bound := computeReqs.Load(), int64(retry.MaxAttempts*out.Dispatch.Batches)
	if n == 0 {
		t.Fatal("the sick worker was never leased a batch; the test proved nothing")
	}
	if n > bound {
		t.Errorf("the sick worker received %d compute requests, over MaxAttempts × batches = %d", n, bound)
	}
	t.Logf("sick worker: %d compute requests (bound %d); dispatch: %s", n, bound, out.Dispatch)
}

// TestAgentRejoins: an agent outlives its coordinator. Behind one fixed
// URL the coordinator is swapped for a fresh one, so heartbeats get 404
// and the agent must register again; then the coordinator is blacked out
// with 503s until the worker's lease lapses. Once it answers again the
// agent is live on the new coordinator.
func TestAgentRejoins(t *testing.T) {
	newCoord := func() *fabric.Coordinator {
		store, err := cache.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := fabric.New(fabric.Config{Store: store, LeaseTTL: 200 * time.Millisecond, Retry: fastRetry()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var current atomic.Pointer[fabric.Coordinator]
	var blackout atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blackout.Load() {
			http.Error(w, `{"error":"coordinator unavailable"}`, http.StatusServiceUnavailable)
			return
		}
		current.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	waitLive := func(c *fabric.Coordinator, want int, when string) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); c.LiveWorkers() != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d live workers after 15 s, want %d", when, c.LiveWorkers(), want)
			}
		}
	}

	first := newCoord()
	current.Store(first)
	startAgent(t, front.URL, "w", "http://127.0.0.1:1", 20*time.Millisecond)
	waitLive(first, 1, "first coordinator")

	second := newCoord()
	current.Store(second)
	waitLive(second, 1, "after the swap")

	blackout.Store(true)
	waitLive(second, 0, "during the blackout")
	blackout.Store(false)
	waitLive(second, 1, "after the blackout")
}

// TestMisKeyedReplyRequeues: a compute reply is untrusted input. A fake
// worker (a proxy in front of a real one) answers its first batch with
// the last cell's key replaced — by "" (too short to name a cell), then
// by a sibling's well-formed key the coordinator already stores. Either
// way the coordinator must go by its own key for the leased cell: treat
// the entry as undelivered, requeue it, and finish with every cell's
// result in its store — never index the reported key, and never journal
// a cell with no result behind it (which the fold would then have to
// recompute on the coordinator's own executor).
func TestMisKeyedReplyRequeues(t *testing.T) {
	for _, tc := range []struct {
		name   string
		badKey func(sibling string) string
	}{
		{"empty", func(string) string { return "" }},
		{"sibling", func(sibling string) string { return sibling }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			real, _, _ := newWorker(t, fakeSim, nil)
			target, err := url.Parse(real.URL)
			if err != nil {
				t.Fatal(err)
			}
			var tampered atomic.Bool
			proxy := httputil.NewSingleHostReverseProxy(target)
			proxy.ModifyResponse = func(resp *http.Response) error {
				if resp.Request.URL.Path != "/api/v1/compute" || tampered.Swap(true) {
					return nil
				}
				var cr server.ComputeResponse
				if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
					return err
				}
				resp.Body.Close()
				last := len(cr.Cells) - 1
				cr.Cells[last].Key = tc.badKey(cr.Cells[0].Key)
				b, err := json.Marshal(cr)
				if err != nil {
					return err
				}
				resp.Body = io.NopCloser(bytes.NewReader(b))
				resp.ContentLength = int64(len(b))
				resp.Header.Set("Content-Length", strconv.Itoa(len(b)))
				return nil
			}
			fake := httptest.NewServer(proxy)
			t.Cleanup(fake.Close)

			var localComputes atomic.Int64
			coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{
				BatchSize: 16, LeaseTTL: 10 * time.Second, Logf: t.Logf,
				Sim: func(cfg sim.Config) (sim.Result, error) {
					localComputes.Add(1)
					return fakeSim(cfg)
				},
			})
			register(t, coordURL, "fake", fake.URL)

			spec := tinySpec()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := coord.RunCtx(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !tampered.Load() {
				t.Fatal("no reply was tampered with; the test proved nothing")
			}
			if out.Dispatch.Redispatched == 0 {
				t.Errorf("mis-keyed cell was not requeued (%s)", out.Dispatch)
			}
			if n := localComputes.Load(); n != 0 {
				t.Errorf("coordinator simulated %d cell(s) itself: a cell was journaled with no result in the store", n)
			}
			if out.Computed+out.Served != out.Total {
				t.Errorf("attribution computed=%d served=%d does not add up to %d", out.Computed, out.Served, out.Total)
			}
			ref := localReference(t, spec, fakeSim)
			if !bytes.Equal(mustJSON(t, out.Fig12), mustJSON(t, ref.Fig12)) {
				t.Error("fold differs from the local reference")
			}
		})
	}
}

// TestRouteParity: one tiny real-simulator spec through every route that
// can run a cell — a local engine, a svard-served job, a compute batch
// folded afterwards, and a fabric run whose only worker fails every cell
// so all of them take the coordinator's local fallback. Every route
// executes on campaign.Cell with the default executor, so the folded
// cells must be identical and each route's attribution must add up.
func TestRouteParity(t *testing.T) {
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
		Profiles: []string{"S0"},
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := localReference(t, spec, nil)

	check := func(route string, cells []sim.Fig12Cell, total, computed, served, resumed int) {
		t.Helper()
		if !bytes.Equal(mustJSON(t, cells), mustJSON(t, want.Fig12)) {
			t.Errorf("%s: folded cells differ from the local engine's:\ngot  %s\nwant %s", route, mustJSON(t, cells), mustJSON(t, want.Fig12))
		}
		if total != len(jobs) || computed+served+resumed != total {
			t.Errorf("%s: computed %d + served %d + resumed %d != total %d (spec has %d cells)",
				route, computed, served, resumed, total, len(jobs))
		}
	}
	check("engine", want.Fig12, want.Total, want.Computed, want.Served, want.Resumed)
	if want.Computed != len(jobs) {
		t.Errorf("engine over a fresh store computed %d of %d cells", want.Computed, len(jobs))
	}

	// A svard-served job, submit → wait → result over HTTP.
	ts, _, _ := newWorker(t, nil, nil)
	c := client.New(ts.URL)
	info, err := c.Submit(ctx, spec, "parity", 0)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, info.ID, nil); err != nil || final.State != server.StateDone {
		t.Fatalf("served job ended %+v, err %v", final, err)
	}
	res, err := c.Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	check("served job", res.Fig12, res.Total, res.Computed, res.Served, res.Resumed)

	// A compute batch on a fresh worker, then a fold over its store.
	ts2, _, store2 := newWorker(t, nil, nil)
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.Config
	}
	batch, err := client.New(ts2.URL).Compute(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := (&campaign.Engine{Store: store2, Workers: 2}).RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	check("compute batch", folded.Fig12, len(batch.Cells), batch.Computed, batch.Served, batch.Failed)
	if batch.Computed != len(jobs) || folded.Computed != 0 {
		t.Errorf("compute batch computed %d cells and its fold %d; want %d and 0", batch.Computed, folded.Computed, len(jobs))
	}

	// The fabric with a worker that never delivers: every cell exhausts
	// its one dispatch attempt and runs on the coordinator's own cell path.
	coord, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{Workers: 2, BatchSize: 2, MaxCellAttempts: 1})
	broken, _, _ := newWorker(t, func(sim.Config) (sim.Result, error) { return sim.Result{}, os.ErrDeadlineExceeded }, nil)
	register(t, coordURL, "broken", broken.URL)
	out, err := coord.RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	check("fabric local fallback", out.Fig12, out.Total, out.Computed, out.Served, out.Resumed)
	if out.Dispatch.LocalCells != len(jobs) || out.Computed != len(jobs) {
		t.Errorf("fabric: %d local cells, %d computed; want all %d on the local fallback (%s)",
			out.Dispatch.LocalCells, out.Computed, len(jobs), out.Dispatch)
	}
}

// TestOversizedControlBodiesGet413: register, heartbeat and object-store
// bodies are capped at 1 MiB, and a body over the cap is refused as too
// large — not truncated into whatever JSON error the cut produces.
func TestOversizedControlBodiesGet413(t *testing.T) {
	_, coordURL := newCoordinator(t, t.TempDir(), fabric.Config{})
	big := strings.Repeat("a", 2<<20)
	for _, in := range []struct {
		method, route string
		body          any
	}{
		{http.MethodPost, "/api/v1/workers", fabric.RegisterRequest{Name: big, URL: "http://127.0.0.1:1"}},
		{http.MethodPost, "/api/v1/heartbeat", fabric.HeartbeatRequest{ID: big}},
		{http.MethodPut, "/api/v1/objects/" + strings.Repeat("ab", 32), map[string]string{"schema": big}},
	} {
		req, err := http.NewRequest(in.method, coordURL+in.route, bytes.NewReader(mustJSON(t, in.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200)) // a wrong answer may echo the body
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("2 MiB %s %s: status %d (%s), want 413", in.method, in.route, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
}

// TestHeartbeatReusesConnection: the agent decodes nothing from a
// heartbeat's reply, and a reply closed unread costs its keep-alive
// connection — one new TCP connection per beat per worker, for as long
// as the fabric is up. Registration and every beat after it must share
// the first connection.
func TestHeartbeatReusesConnection(t *testing.T) {
	store, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.New(fabric.Config{Store: store, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	var opened, beats atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/heartbeat" {
			beats.Add(1)
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	a := &fabric.Agent{Fabric: ts.URL, Advertise: "http://127.0.0.1:1", Name: "w", Heartbeat: 2 * time.Millisecond, HTTP: ts.Client()}
	go func() {
		defer close(done)
		a.Run(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); beats.Load() < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if beats.Load() < 20 {
		t.Fatalf("only %d heartbeats arrived in 5 s", beats.Load())
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("registration + %d heartbeats opened %d connections, want 1", beats.Load(), n)
	}
}
