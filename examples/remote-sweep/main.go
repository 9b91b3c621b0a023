// remote-sweep drives a running svard-served instance end to end: it
// submits a campaign over HTTP, streams per-cell progress, waits for
// completion, and prints the folded Fig. 12/13 tables — the remote
// twin of running svard-sweep locally, sharing the daemon's warm cache
// with every other client.
//
// Usage:
//
//	svard-served -addr 127.0.0.1:8344 &           # start the service
//	remote-sweep -addr http://127.0.0.1:8344      # tiny default sweep
//	remote-sweep -addr ... -golden internal/sim/testdata/fig12_golden.json
//
// With -golden, the campaign replays exactly the fixture's sweep and
// the fetched cells are diffed field-by-field against the recorded
// ones; any mismatch exits non-zero. That makes this example double as
// the CI smoke test for the service's determinism guarantee: cells
// computed behind the scheduler, the shared worker pool, and the cache
// are bit-identical to a direct serial sim.RunFig12Ctx call.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"reflect"
	"syscall"
	"time"

	"svard/internal/campaign"
	"svard/internal/client"
	"svard/internal/report"
	"svard/internal/server"
	"svard/internal/sim"
)

// goldenFile mirrors internal/sim's Fig. 12 fixture layout (options +
// cells), so -golden can rebuild the identical sweep.
type goldenFile struct {
	Base     sim.Config
	Mixes    [][]string
	NRHs     []float64
	Defenses []string
	Profiles []string
	Cells    []sim.Fig12Cell
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8344", "svard-served base URL")
		golden   = flag.String("golden", "", "fig12 golden fixture: replay its sweep and diff the cells (CI smoke mode)")
		name     = flag.String("name", "remote-sweep", "job name")
		priority = flag.Int("priority", 0, "job priority (higher runs first)")
		quiet    = flag.Bool("q", false, "suppress the progress stream")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall deadline")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	var spec campaign.Spec
	var wantCells []sim.Fig12Cell
	if *golden != "" {
		b, err := os.ReadFile(*golden)
		if err != nil {
			fatal(err)
		}
		var g goldenFile
		if err := json.Unmarshal(b, &g); err != nil {
			fatal(fmt.Errorf("%s: %w", *golden, err))
		}
		spec = campaign.Spec{
			Figures:  []string{campaign.Fig12},
			Base:     g.Base,
			Mixes:    g.Mixes,
			NRHs:     g.NRHs,
			Defenses: g.Defenses,
			Profiles: g.Profiles,
		}
		wantCells = g.Cells
	} else {
		// A seconds-scale default sweep: two defenses, two thresholds.
		base := sim.DefaultConfig()
		base.InstrPerCore = 150_000
		base.WarmupPerCore = 30_000
		spec = campaign.Spec{
			Figures:  []string{campaign.Fig12},
			Base:     base,
			MixCount: 2,
			NRHs:     []float64{1024, 64},
			Defenses: []string{"para", "rrs"},
			Profiles: []string{"S0"},
		}
	}

	// The retry policy rides out transient failures (5xx, dropped
	// connections) with jittered backoff — a CI worker restart mid-smoke
	// is a retry, not a red build. Wait reconnects the event stream from
	// the last seen offset under the same policy's backoff.
	c := client.New(*addr)
	c.Retry = &client.Policy{}
	if err := c.Health(ctx); err != nil {
		fatal(fmt.Errorf("service not reachable at %s: %w", *addr, err))
	}

	info, err := c.Submit(ctx, spec, *name, *priority)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%d cells, fingerprint %s)\n",
		info.ID, info.Total, info.Fingerprint[:16])

	final, err := c.Wait(ctx, info.ID, func(ev server.Event) error {
		if *quiet {
			return nil
		}
		switch ev.Type {
		case "cell":
			fmt.Fprintf(os.Stderr, "\r%4d/%d  %-50s", ev.Done, ev.Total, ev.Label)
		case "state":
			fmt.Fprintf(os.Stderr, "\n%s: %s %s\n", info.ID, ev.State, ev.Error)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if final.State != server.StateDone {
		fatal(fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error))
	}

	res, err := c.Result(ctx, final.ID)
	if err != nil {
		fatal(err)
	}
	report.Outcome(os.Stdout, spec.Defenses, &res.Outcome)
	fmt.Printf("server cache totals: %s\n", res.Stats)

	if *golden != "" {
		if !reflect.DeepEqual(res.Fig12, wantCells) {
			fmt.Fprintf(os.Stderr, "FAIL: cells fetched over HTTP differ from the golden fixture\ngot  %+v\nwant %+v\n",
				res.Fig12, wantCells)
			os.Exit(1)
		}
		fmt.Println("golden check: cells served over HTTP are bit-identical to the fixture")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
