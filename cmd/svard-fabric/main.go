// svard-fabric is the distributed campaign coordinator: it shards a
// campaign's cells across registered svard-served workers with
// lease-based dispatch, doubles as the shared remote object store the
// workers publish results through, and folds the results it took
// delivery of — bit-identical to a single-node run, whatever workers
// join, die, or flap along the way.
//
// Usage:
//
//	svard-fabric [-addr HOST:PORT] [-cache-dir DIR] [-spec campaign.json]
//	             [-batch N] [-lease DUR] [-min-workers N] [-max-attempts N]
//	             [-workers N] [-resume] [-out FILE] [-q]
//
// Endpoints (see EXPERIMENTS.md, "Distributed fabric"):
//
//	POST /api/v1/workers        worker registration ({name, url})
//	POST /api/v1/heartbeat      lease renewal ({id}; 404 = re-register)
//	GET  /api/v1/objects/{key}  fetch a sealed result envelope
//	PUT  /api/v1/objects/{key}  publish a sealed result envelope
//	GET  /healthz               fleet + campaign summary
//
// With -spec, the coordinator waits for -min-workers live workers, runs
// the campaign, prints the folded figures plus the dispatch accounting,
// and exits; interrupted runs resume with -resume. Without -spec it
// serves as a standing coordinator and shared object store until
// terminated.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"svard/internal/cache"
	"svard/internal/campaign"
	"svard/internal/fabric"
	"svard/internal/report"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8355", "listen address")
		cacheDir    = flag.String("cache-dir", ".svard-cache", "result cache directory ('' = memory only; also the object store and journal home)")
		lru         = flag.Int("lru", 0, "in-memory LRU entries (0 = default)")
		specFile    = flag.String("spec", "", "campaign spec JSON file to dispatch (e.g. from svard-sweep -print-spec); '' = serve as a standing coordinator")
		batch       = flag.Int("batch", 0, "cells per lease (0 = 16)")
		lease       = flag.Duration("lease", 0, "lease TTL; a worker missing heartbeats this long loses its cells (0 = 15s)")
		minWorkers  = flag.Int("min-workers", 1, "live workers to wait for before dispatching")
		maxAttempts = flag.Int("max-attempts", 0, "dispatch attempts per cell before the coordinator computes it locally (0 = 3)")
		workers     = flag.Int("workers", 0, "local parallelism for last-resort computes (0 = GOMAXPROCS)")
		resume      = flag.Bool("resume", false, "resume this campaign's interrupted journal")
		outFile     = flag.String("out", "", "write the folded outcome and dispatch stats as JSON to this file")
		quiet       = flag.Bool("q", false, "suppress dispatch progress output")
	)
	flag.Parse()

	store, err := cache.Open(*cacheDir, *lru)
	if err != nil {
		fatal(err)
	}
	cfg := fabric.Config{
		Store:           store,
		Workers:         *workers,
		BatchSize:       *batch,
		LeaseTTL:        *lease,
		MinWorkers:      *minWorkers,
		MaxCellAttempts: *maxAttempts,
		Resume:          *resume,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	coord, err := fabric.New(cfg)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	where := *cacheDir
	if where == "" {
		where = "(memory only)"
	}
	fmt.Fprintf(os.Stderr, "svard-fabric: coordinating on %s, cache %s\n", *addr, where)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process the default way
	}()

	if *specFile == "" {
		// Standing coordinator: serve registrations, heartbeats, and the
		// object store until terminated.
		select {
		case <-ctx.Done():
		case err := <-errc:
			fatal(err)
		}
		shutdown(httpSrv)
		return
	}

	b, err := os.ReadFile(*specFile)
	if err != nil {
		fatal(err)
	}
	var spec campaign.Spec
	if err := json.Unmarshal(b, &spec); err != nil {
		fatal(fmt.Errorf("%s: %w", *specFile, err))
	}
	plan, err := spec.Plan()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "svard-fabric: campaign %s: %d cells; waiting for %d worker(s)\n",
		plan.Fingerprint[:16], len(plan.Jobs), *minWorkers)

	res, err := coord.RunPlan(ctx, plan)
	if err != nil {
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "campaign interrupted (cache %s; re-run with -resume to continue): ", *cacheDir)
		}
		fatal(err)
	}

	report.Outcome(os.Stdout, spec.Defenses, res.Outcome)
	fmt.Printf("dispatch: %s\n", res.Dispatch)

	if *outFile != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "outcome written to %s\n", *outFile)
	}
	shutdown(httpSrv)
}

func shutdown(s *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
