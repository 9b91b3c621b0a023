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
//	             [-batch N] [-lease DUR] [-min-workers N] [-out FILE] [-q]
//
// Endpoints (see EXPERIMENTS.md, "Distributed fabric"):
//
//	POST /api/v1/workers        worker registration ({name, url})
//	POST /api/v1/heartbeat      lease renewal ({id}; 404 = re-register)
//	GET  /api/v1/objects/{key}  fetch a sealed result envelope
//	PUT  /api/v1/objects/{key}  publish a sealed result envelope
//	GET  /healthz               fleet + campaign summary
//
// With -spec, the coordinator serves every cell its cache already holds,
// waits for -min-workers live workers if any cell is left, runs the rest
// of the campaign, prints the folded figures plus the dispatch
// accounting, and exits. An interrupted run picks up where it stopped
// when started again over the same -cache-dir; a finished one needs no
// worker. Without -spec it serves as a standing coordinator and shared
// object store until terminated. A cell no worker delivers within three
// dispatch attempts is computed locally, on GOMAXPROCS slots.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command. A -spec is read and planned before the
// store is opened or the address bound, so a spec it refuses leaves no
// cache directory behind and never takes the port.
func run(args []string) error {
	fs := flag.NewFlagSet("svard-fabric", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8355", "listen address")
		cacheDir   = fs.String("cache-dir", ".svard-cache", "result cache directory ('' = memory only; also the object store and journal home)")
		specFile   = fs.String("spec", "", "campaign spec JSON file to dispatch (e.g. from svard-sweep -print-spec); '' = serve as a standing coordinator")
		batch      = fs.Int("batch", 0, "cells per lease (0 = 16)")
		lease      = fs.Duration("lease", 0, "lease TTL; a worker missing heartbeats this long loses its cells (0 = 15s)")
		minWorkers = fs.Int("min-workers", 1, "live workers to wait for before dispatching")
		outFile    = fs.String("out", "", "write the folded outcome and dispatch stats as JSON to this file")
		quiet      = fs.Bool("q", false, "suppress dispatch progress output")
	)
	fs.Parse(args)

	var spec campaign.Spec
	var plan campaign.Plan
	if *specFile != "" {
		if err := campaign.ReadSpec(*specFile, &spec); err != nil {
			return err
		}
		var err error
		if plan, err = spec.Plan(); err != nil {
			return err
		}
	}

	store, err := cache.Open(*cacheDir, 0)
	if err != nil {
		return err
	}
	cfg := fabric.Config{
		Store:      store,
		BatchSize:  *batch,
		LeaseTTL:   *lease,
		MinWorkers: *minWorkers,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	coord, err := fabric.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	defer shutdown(httpSrv)
	where := *cacheDir
	if where == "" {
		where = "(memory only)"
	}
	fmt.Fprintf(os.Stderr, "svard-fabric: coordinating on %s, cache %s\n", ln.Addr(), where)

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
			return nil
		case err := <-errc:
			return err
		}
	}

	res, err := coord.RunPlan(ctx, plan)
	if err != nil {
		if *cacheDir != "" {
			return fmt.Errorf("campaign interrupted (cache %s; re-run the same command to continue): %w", *cacheDir, err)
		}
		return err
	}

	report.Outcome(os.Stdout, spec.Defenses, res.Outcome)
	fmt.Printf("dispatch: %s\n", res.Dispatch)

	if *outFile != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "outcome written to %s\n", *outFile)
	}
	return nil
}

func shutdown(s *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}
