package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/fabric"
	"svard/internal/server"
	"svard/internal/sim"
	"svard/internal/temporal"
)

// fig12Fixture mirrors internal/sim/testdata/fig12_golden.json (and the
// HBM2 fixture, which shares the layout).
type fig12Fixture struct {
	Base     sim.Config
	Mixes    [][]string
	NRHs     []float64
	Defenses []string
	Profiles []string
	Cells    []sim.Fig12Cell
}

type fig13Fixture struct {
	Base     sim.Config
	NRH      float64
	Benign   []string
	Profiles []string
	Cells    []sim.Fig13Cell
}

func readFixture(root, name string, v any) error {
	b, err := os.ReadFile(filepath.Join(root, "internal", "sim", "testdata", name))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// fabricBatch is the cells per lease of the fabric2 workload: 42 cells
// in leases of 3 give each of the two one-slot workers 7 leases, so the
// 2x spread between cell costs evens out instead of landing on one
// worker as it does with the default 16.
const fabricBatch = 3

// fabricWorkers is the fleet size of the fabric2 workload, each worker
// with one simulation slot: together they fill this box's two cores.
const fabricWorkers = 2

// inputs is everything a workload runs on, made from --seed alone: the
// golden fixture's sweep with all five defenses, the same sweep as a
// campaign spec, the fixture's own para/rrs spec (served_warm's second
// client), and the erosion sweep over the same base.
type inputs struct {
	seed    uint64
	workers int    // GOMAXPROCS: simulation parallelism of every layer
	root    string // checkout root
	tmp     string // parent of every store directory, inside the checkout

	golden     fig12Fixture
	fig12      sim.Fig12Options
	spec       campaign.Spec
	goldenSpec campaign.Spec
	erosion    sim.ErosionOptions
}

func newInputs(root, tmp string, seed uint64, workers int) (*inputs, error) {
	in := &inputs{workers: workers, root: root, tmp: tmp}
	if err := readFixture(root, "fig12_golden.json", &in.golden); err != nil {
		return nil, err
	}
	return in.withSeed(seed), nil
}

// withSeed returns the same inputs under another seed. The simulator
// calibrates a module per (label, geometry, seed), so a set-up under a
// fresh seed repeats the whole one-off calibration: that is how one run
// measures set-up time more than once.
func (in *inputs) withSeed(seed uint64) *inputs {
	out := *in
	out.seed = seed
	g := in.golden
	base := g.Base
	base.Seed = seed
	out.fig12 = sim.Fig12Options{
		Base: base, Mixes: g.Mixes, NRHs: g.NRHs, Profiles: g.Profiles,
		Defenses: sim.DefenseNames, Workers: in.workers,
	}
	out.spec = campaign.Spec{
		Figures: []string{campaign.Fig12},
		Base:    base, Mixes: g.Mixes, NRHs: g.NRHs, Profiles: g.Profiles,
		Defenses: sim.DefenseNames,
	}
	out.goldenSpec = out.spec
	out.goldenSpec.Defenses = g.Defenses
	out.erosion = sim.ErosionOptions{
		Base: base, Mixes: g.Mixes, NRHs: g.NRHs,
		Defenses:  []string{"para", "rrs"},
		Intervals: []uint64{0, 16, 64},
		Process:   temporal.Spec{EpochCycles: 65536, Drift: -0.01, Sigma: 0.02},
		Workers:   in.workers,
	}
	return &out
}

func (in *inputs) mkTemp(pattern string) (string, error) {
	return os.MkdirTemp(in.tmp, pattern)
}

// accounting is a cached route's attribution of one pass.
type accounting struct{ total, computed, served, resumed int }

func accountOf(o *campaign.Outcome) *accounting {
	return &accounting{total: o.Total, computed: o.Computed, served: o.Served, resumed: o.Resumed}
}

// passOut is one closed-loop unit of work: its wall time, what it folded
// and how the cells were attributed.
type passOut struct {
	wall   time.Duration // the timed part: sweep / campaign / submit→result
	cells  int           // simulation cells behind the folded figure
	folded any           // []sim.Fig12Cell or []sim.ErosionCell
	acct   *accounting   // nil: the route has no cache
	fault  string        // a broken route invariant (fabric re-dispatch, …)
}

// route is a workload after set-up: ready to run passes.
type route interface {
	// clients is the number of closed-loop callers; each waits for its
	// result before it sends the next request.
	clients() int
	pass(ctx context.Context, client int) (passOut, error)
	close() error
}

// attribution is what a workload's passes must show in their accounting.
type attribution int

const (
	attrNone attribution = iota // no cache on the route
	attrCold                    // every cell computed by this pass
	attrWarm                    // every cell served, none simulated
)

// workloadDef is one benchmark workload. setup does everything a pass
// needs done once — calibration, store population, listeners — and is
// what setup_s times. ledgerPasses is how many passes per client a
// traced run of ANOTHER workload spends on this route to fill its rows of
// the per-layer ledger.
type workloadDef struct {
	name         string
	attr         attribution
	ledgerPasses int
	setup        func(ctx context.Context, in *inputs, tr *tracer) (route, error)
}

var workloads = []workloadDef{
	{"fig12_inproc", attrNone, 1, setupInproc},
	{"fig12_served_cold", attrCold, 1, setupServedCold},
	{"fig12_campaign_warm", attrWarm, 20, setupCampaignWarm},
	{"fig12_served_warm", attrWarm, 500, setupServedWarm},
	{"fig12_fabric2", attrCold, 1, setupFabric},
	{"erosion_inproc", attrNone, 1, setupErosion},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// solo is the part of a route with one client and nothing to release.
type solo struct{}

func (solo) clients() int { return 1 }
func (solo) close() error { return nil }

// --- fig12_inproc, erosion_inproc --------------------------------------

// sweepRoute runs a sweep in process, with no cache: sim.RunFig12Ctx or
// sim.RunErosionCtx.
type sweepRoute struct {
	solo
	tr    *tracer
	cells int
	run   func(ctx context.Context, runner sim.Runner) (folded any, err error)
}

// setupSweep runs the sweep once untimed: that calibrates the module and
// grows the simulator's arena pool, the lazy set-up every later pass reuses.
func setupSweep(ctx context.Context, r *sweepRoute) (route, error) {
	if _, err := r.run(ctx, nil); err != nil {
		return nil, err
	}
	return r, nil
}

func setupInproc(ctx context.Context, in *inputs, tr *tracer) (route, error) {
	return setupSweep(ctx, &sweepRoute{tr: tr, cells: len(sim.Fig12Jobs(in.fig12)),
		run: func(ctx context.Context, runner sim.Runner) (any, error) {
			opt := in.fig12
			opt.Runner = runner
			return sim.RunFig12Ctx(ctx, opt)
		}})
}

func setupErosion(ctx context.Context, in *inputs, tr *tracer) (route, error) {
	jobs, err := sim.ErosionJobs(in.erosion)
	if err != nil {
		return nil, err
	}
	return setupSweep(ctx, &sweepRoute{tr: tr, cells: len(jobs),
		run: func(ctx context.Context, runner sim.Runner) (any, error) {
			opt := in.erosion
			opt.Runner = runner
			return sim.RunErosionCtx(ctx, opt)
		}})
}

func (r *sweepRoute) pass(ctx context.Context, _ int) (passOut, error) {
	start := time.Now()
	p := r.tr.openPass(start)
	folded, err := r.run(ctx, r.tr.runner(sim.PooledRunRecorded))
	end := time.Now()
	r.tr.close(p, end)
	return passOut{wall: end.Sub(start), cells: r.cells, folded: folded}, err
}

// --- fig12_campaign_warm -----------------------------------------------

type campaignRoute struct {
	solo
	in  *inputs
	tr  *tracer
	dir string
}

// campaignPass runs the spec through a campaign engine over a fresh
// handle on dir — what one svard-sweep invocation does.
func campaignPass(ctx context.Context, in *inputs, tr *tracer, dir string) (passOut, error) {
	start := time.Now()
	p := tr.openPass(start)
	var out *campaign.Outcome
	err := tr.timed("campaign.run", p, func() error {
		store, err := cache.Open(dir, 0)
		if err != nil {
			return err
		}
		eng := &campaign.Engine{Store: store, Workers: in.workers, Sim: tr.runner(sim.PooledRunRecorded)}
		out, err = eng.RunCtx(ctx, in.spec)
		return err
	})
	end := time.Now()
	tr.close(p, end)
	if err != nil {
		return passOut{}, err
	}
	return passOut{wall: end.Sub(start), cells: out.Total, folded: out.Fig12, acct: accountOf(out)}, nil
}

// setupCampaignWarm populates a store with one cold campaign pass. The
// cold pass is itself a ledger row (campaign.cold_pass_ms): its spans
// are recorded under the route's name like any other.
func setupCampaignWarm(ctx context.Context, in *inputs, tr *tracer) (route, error) {
	dir, err := in.mkTemp("campaign-*")
	if err != nil {
		return nil, err
	}
	out, err := campaignPass(ctx, in, tr, dir)
	if err == nil && out.acct.computed != out.acct.total {
		err = fmt.Errorf("populating pass computed %d of %d cells", out.acct.computed, out.acct.total)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &campaignRoute{in: in, tr: tr, dir: dir}, nil
}

func (r *campaignRoute) close() error { return os.RemoveAll(r.dir) }

func (r *campaignRoute) pass(ctx context.Context, _ int) (passOut, error) {
	return campaignPass(ctx, r.in, r.tr, r.dir)
}

// --- svard-served over loopback ----------------------------------------

// countingTransport counts HTTP round trips, so the retries a client
// makes on its own show up as round trips beyond the expected ones.
type countingTransport struct {
	base  *http.Transport
	trips atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	return c.base.RoundTrip(req)
}

// tripsPerJob is what one job costs without a retry: submit, Wait's
// event stream and its closing job fetch, result.
const tripsPerJob = 4

// served is one svard-served instance on a loopback listener with its
// own store directory, plus a client for it.
type served struct {
	in   *inputs
	tr   *tracer
	dir  string
	svc  *server.Server
	ts   *httptest.Server
	rt   *countingTransport
	cl   *client.Client
	jobs atomic.Int64
}

// startServed starts a daemon with the given simulation slots. run is
// its base executor (nil: the daemon's default, sim.Run); remoteURL, when
// set, mounts that object store as the cache's remote layer.
func startServed(in *inputs, tr *tracer, workers int, remoteURL string, run sim.Runner) (*served, error) {
	dir, err := in.mkTemp("served-*")
	if err != nil {
		return nil, err
	}
	store, err := cache.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if remoteURL != "" {
		store.SetRemote(client.NewCacheRemote(remoteURL, client.Policy{}), cache.DefaultRemoteTimeout)
	}
	svc, err := server.New(server.Config{Store: store, Workers: workers, Sim: run})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &served{in: in, tr: tr, dir: dir, svc: svc}
	s.ts = httptest.NewServer(svc.Handler())
	s.rt = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	s.cl = client.New(s.ts.URL)
	s.cl.HTTP = &http.Client{Transport: s.rt}
	return s, nil
}

func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	s.rt.base.CloseIdleConnections()
	s.ts.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// retries is the round trips beyond what the jobs run so far needed.
func (s *served) retries() int64 { return s.rt.trips.Load() - tripsPerJob*s.jobs.Load() }

// job is one closed-loop request: submit the spec, follow its event
// stream to the end, fetch the folded result.
func (s *served) job(ctx context.Context, spec campaign.Spec) (passOut, error) {
	s.jobs.Add(1)
	start := time.Now()
	p := s.tr.openPass(start)
	var info server.JobInfo
	var res server.ResultResponse
	err := s.tr.timed("client.submit", p, func() (err error) {
		info, err = s.cl.Submit(ctx, spec, "", 0)
		return err
	})
	if err == nil {
		err = s.tr.timed("client.wait", p, func() (err error) {
			info, err = s.cl.Wait(ctx, info.ID, nil)
			return err
		})
	}
	if err == nil && info.State != server.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	if err == nil {
		err = s.tr.timed("client.result", p, func() (err error) {
			res, err = s.cl.Result(ctx, info.ID)
			return err
		})
	}
	end := time.Now()
	s.tr.close(p, end)
	if err != nil {
		return passOut{}, err
	}
	return passOut{
		wall: end.Sub(start), cells: res.Total, folded: res.Fig12,
		acct: &accounting{total: res.Total, computed: res.Computed, served: res.Served, resumed: res.Resumed},
	}, nil
}

// servedColdRoute starts a daemon over an empty store for every pass.
type servedColdRoute struct {
	solo
	in      *inputs
	tr      *tracer
	retried atomic.Int64
}

// setupServedCold runs the sweep once in process: the calibrated module
// is process-wide, so without this the first pass alone would pay for it.
func setupServedCold(ctx context.Context, in *inputs, tr *tracer) (route, error) {
	if _, err := sim.RunFig12Ctx(ctx, in.fig12); err != nil {
		return nil, err
	}
	return &servedColdRoute{in: in, tr: tr}, nil
}

func (r *servedColdRoute) pass(ctx context.Context, _ int) (out passOut, err error) {
	s, err := startServed(r.in, r.tr, r.in.workers, "", r.tr.runner(sim.RunRecorded))
	if err != nil {
		return passOut{}, err
	}
	defer func() {
		r.retried.Add(s.retries())
		err = errors.Join(err, s.stop())
	}()
	return s.job(ctx, r.in.spec)
}

// servedWarmRoute is one long-lived daemon whose in-memory LRU holds
// every cell. Client 0 submits the 42-cell spec and client 1 the golden
// fixture's own para/rrs spec: distinct fingerprints (so neither submit
// is folded into the other's in-flight job) over overlapping keys.
type servedWarmRoute struct {
	*served
	specs []campaign.Spec
}

func setupServedWarm(ctx context.Context, in *inputs, tr *tracer) (route, error) {
	s, err := startServed(in, tr, in.workers, "", tr.runner(sim.RunRecorded))
	if err != nil {
		return nil, err
	}
	r := &servedWarmRoute{served: s, specs: []campaign.Spec{in.spec, in.goldenSpec}}
	// The populating job computes all 42 cells; the fixture's spec then
	// finds its 18 among them.
	out, err := s.job(ctx, in.spec)
	if err == nil && out.acct.computed != out.acct.total {
		err = fmt.Errorf("populating job computed %d of %d cells", out.acct.computed, out.acct.total)
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return r, nil
}

func (r *servedWarmRoute) clients() int { return len(r.specs) }
func (r *servedWarmRoute) close() error { return r.stop() }

func (r *servedWarmRoute) pass(ctx context.Context, client int) (passOut, error) {
	return r.job(ctx, r.specs[client])
}

// computeBatches sends the spec's cells as one raw batch — the fabric
// coordinator's dispatch call — against the warm store, n times.
func (r *servedWarmRoute) computeBatches(ctx context.Context, n int) error {
	jobs, err := r.in.spec.Jobs()
	if err != nil {
		return err
	}
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.Config
	}
	for i := 0; i < n; i++ {
		err := r.tr.timed("client.compute", 0, func() error {
			resp, err := r.cl.Compute(ctx, cfgs)
			if err == nil && resp.Served != len(cfgs) {
				err = fmt.Errorf("warm batch served %d of %d cells", resp.Served, len(cfgs))
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// --- fig12_fabric2 -----------------------------------------------------

// fabricRoute stands up a coordinator and two one-slot workers over
// empty stores for every pass; the workers register through their fabric
// agents and mount the coordinator's object store as their remote cache.
type fabricRoute struct {
	solo
	in    *inputs
	tr    *tracer
	stats []fabricPass // one per pass; the route has one client
}

// fabricPass is the dispatch-plane accounting of one pass.
type fabricPass struct {
	dispatch  fabric.DispatchStats
	perWorker []int64 // cells each worker simulated
}

func setupFabric(ctx context.Context, in *inputs, tr *tracer) (route, error) {
	if _, err := sim.RunFig12Ctx(ctx, in.fig12); err != nil {
		return nil, err
	}
	return &fabricRoute{in: in, tr: tr}, nil
}

func (r *fabricRoute) pass(ctx context.Context, _ int) (out passOut, err error) {
	dir, err := r.in.mkTemp("fabric-*")
	if err != nil {
		return passOut{}, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	store, err := cache.Open(dir, 0)
	if err != nil {
		return passOut{}, err
	}
	coord, err := fabric.New(fabric.Config{
		Store: store, Workers: r.in.workers, BatchSize: fabricBatch, MinWorkers: fabricWorkers,
	})
	if err != nil {
		return passOut{}, err
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	agentCtx, stopAgents := context.WithCancel(ctx)
	var agents sync.WaitGroup
	defer func() {
		stopAgents()
		agents.Wait()
	}()
	perWorker := make([]atomic.Int64, fabricWorkers)
	for i := range perWorker {
		// Count the cells each worker simulates at the same boundary the
		// sim.cell spans are taken (traced runs only: an untraced worker
		// keeps the daemon's default executor).
		run := r.tr.runner(sim.RunRecorded)
		if run != nil {
			cell, n := run, &perWorker[i]
			run = func(cfg sim.Config) (sim.Result, error) {
				n.Add(1)
				return cell(cfg)
			}
		}
		w, startErr := startServed(r.in, r.tr, 1, cts.URL, run)
		if startErr != nil {
			return passOut{}, startErr
		}
		defer func() { err = errors.Join(err, w.stop()) }()
		agent := &fabric.Agent{Fabric: cts.URL, Advertise: w.ts.URL, Name: fmt.Sprintf("w%d", i)}
		agents.Add(1)
		go func() {
			defer agents.Done()
			agent.Run(agentCtx) // returns only ctx's cause
		}()
	}
	for coord.LiveWorkers() < fabricWorkers {
		select {
		case <-ctx.Done():
			return passOut{}, context.Cause(ctx)
		case <-time.After(time.Millisecond):
		}
	}

	start := time.Now()
	p := r.tr.openPass(start)
	var res *fabric.Result
	err = r.tr.timed("fabric.run", p, func() (err error) {
		res, err = coord.RunCtx(ctx, r.in.spec)
		return err
	})
	end := time.Now()
	r.tr.close(p, end)
	if err != nil {
		return passOut{}, err
	}

	fp := fabricPass{dispatch: res.Dispatch}
	for i := range perWorker {
		fp.perWorker = append(fp.perWorker, perWorker[i].Load())
	}
	r.stats = append(r.stats, fp)
	out = passOut{wall: end.Sub(start), cells: res.Total, folded: res.Fig12, acct: accountOf(res.Outcome)}
	if d := res.Dispatch; d.Redispatched != 0 || d.ExpiredLeases != 0 || d.LocalCells != 0 || d.Workers != fabricWorkers {
		out.fault = "dispatch was not clean: " + d.String()
	}
	return out, nil
}
