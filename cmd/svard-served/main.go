// svard-served is the resident campaign service: one process holding
// the shared content-addressed result cache, the warm module pool, and
// a job scheduler, multiplexed over HTTP so many clients can submit
// sweeps without paying process startup or duplicating in-flight work.
//
// Usage:
//
//	svard-served [-addr HOST:PORT] [-cache-dir DIR] [-workers N] [-pprof]
//	             [-fabric URL] [-advertise URL] [-worker-name NAME]
//	             [-remote-cache URL]
//
// Up to four jobs are admitted at once (queued jobs wait, highest
// priority first, and every job's cells share the -workers slots), and
// the 256 most recent finished jobs stay queryable.
//
// With -fabric, the process also joins a svard-fabric coordinator as a
// dispatch worker: it registers, heartbeats at the coordinator's
// cadence (so its leases survive long cell computes), and re-registers
// whenever the coordinator forgets it. With -remote-cache (usually the
// same coordinator URL), the result cache gains a shared remote layer:
// results computed anywhere in the fleet are served from it, results
// computed here are published to it, and any remote failure degrades
// to local compute — never a failed sweep.
//
// Endpoints (see EXPERIMENTS.md, "Campaign service", for the full table
// and curl examples):
//
//	POST   /api/v1/jobs               submit a campaign.Spec as an async job
//	GET    /api/v1/jobs               list jobs
//	GET    /api/v1/jobs/{id}          inspect one job
//	POST   /api/v1/jobs/{id}/cancel   cancel
//	GET    /api/v1/jobs/{id}/events   stream NDJSON per-cell progress
//	GET    /api/v1/jobs/{id}/result   folded Fig. 12/13 cells
//	GET    /api/v1/jobs/{id}/trace    flight-recorder timeline (Chrome trace JSON)
//	GET    /api/v1/cells/{key}        raw cached cell by config key
//	POST   /api/v1/compute            run one leased batch of raw cells (fabric dispatch); the reply carries each cell's sealed entry
//	GET    /healthz                   liveness + scheduler summary
//	GET    /metrics                   Prometheus text exposition
//
// SIGTERM/Ctrl-C shuts down gracefully: admission stops, every job is
// cancelled (in-flight cells finish — the service returns within one
// cell's latency), journals stay intact, and a resubmitted spec resumes
// from the cache.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"svard/internal/cache"
	"svard/internal/client"
	"svard/internal/dram"
	"svard/internal/fabric"
	"svard/internal/obs"
	"svard/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8344", "listen address")
		cacheDir  = flag.String("cache-dir", ".svard-cache", "result cache directory ('' = memory only)")
		workers   = flag.Int("workers", 0, "max concurrent simulations across all jobs (0 = GOMAXPROCS)")
		grace     = flag.Duration("grace", 2*time.Minute, "graceful shutdown budget before exiting anyway")
		withPprof = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ (profile a live campaign service)")

		fabricURL   = flag.String("fabric", "", "svard-fabric coordinator URL to join as a dispatch worker")
		advertise   = flag.String("advertise", "", "this worker's base URL as reachable from the coordinator (default http://ADDR)")
		workerName  = flag.String("worker-name", "", "worker label in coordinator logs (default the advertise URL)")
		remoteCache = flag.String("remote-cache", "", "shared object-store URL for the cache's remote layer (usually the coordinator)")
	)
	flag.Parse()

	store, err := cache.Open(*cacheDir, 0)
	if err != nil {
		fatal(err)
	}
	if *remoteCache != "" {
		store.SetRemote(client.NewCacheRemote(*remoteCache, client.Policy{}), cache.DefaultRemoteTimeout)
		fmt.Fprintf(os.Stderr, "svard-served: remote cache %s (failures degrade to local compute)\n", *remoteCache)
	}
	svc, err := server.New(server.Config{Store: store, Workers: *workers})
	if err != nil {
		fatal(err)
	}

	handler := svc.Handler()
	if *withPprof {
		// The service handler keeps the API namespace; pprof mounts
		// beside it so a live sweep can be profiled with
		// `go tool pprof http://ADDR/debug/pprof/profile`. Labeling each
		// cell's samples with its sweep coordinates only matters (and only
		// costs anything) when someone can actually take a profile.
		obs.EnableProfilingLabels()
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	where := *cacheDir
	if where == "" {
		where = "(memory only)"
	}
	fmt.Fprintf(os.Stderr, "svard-served: listening on %s, cache %s, stats: %s\n",
		*addr, where, store.Stats())
	fmt.Fprintf(os.Stderr, "svard-served: memory backends: %s\n",
		strings.Join(dram.BackendNames(), ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *fabricURL != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + *addr
		}
		agent := &fabric.Agent{
			Fabric:    *fabricURL,
			Advertise: adv,
			Name:      *workerName,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		go agent.Run(ctx)
		fmt.Fprintf(os.Stderr, "svard-served: joining fabric %s as %s\n", *fabricURL, adv)
	}

	select {
	case <-ctx.Done():
	case err := <-errc:
		fatal(err) // listener died before any signal
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "svard-served: shutting down (in-flight cells finish; journals stay resumable)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Jobs first (they are the long pole), then the listener: streaming
	// clients see their terminal events before connections close.
	if err := svc.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "svard-served: %v\n", err)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "svard-served: http shutdown: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "svard-served: bye; cache %s\n", store.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
