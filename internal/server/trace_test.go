// Tests of the flight-recorder surface: the per-job trace endpoint and
// the /metrics rollups it feeds.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"unicode/utf8"

	"svard/internal/campaign"
	"svard/internal/obs"
	"svard/internal/server"
)

// TestJobTraceEndpoint: a finished job's trace downloads as valid
// Chrome trace_event JSON with one cell per swept config.
func TestJobTraceEndpoint(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 2, Sim: fakeSim})
	ctx := context.Background()
	info, err := c.Submit(ctx, tinySpec(), "traced", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, info.ID, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/api/v1/jobs/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, info.ID) {
		t.Errorf("content disposition %q does not name the job", cd)
	}
	f, err := obs.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("job trace does not validate: %v", err)
	}
	cells := f.CellSummaries()
	if len(cells) != info.Total {
		t.Fatalf("trace has %d cells, job swept %d", len(cells), info.Total)
	}
	for _, cell := range cells {
		if cell.Outcome != "computed" {
			t.Errorf("cell %q outcome = %q, want computed (cold store)", cell.Label, cell.Outcome)
		}
		if cell.Phases["lookup"] <= 0 {
			t.Errorf("cell %q has no lookup phase", cell.Label)
		}
	}

	// Unknown job: 404, not an empty trace.
	resp2, err := http.Get(c.BaseURL + "/api/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("missing job trace status = %d, want 404", resp2.StatusCode)
	}
}

// TestMetricsObsRollups: /metrics exposes the counter glossary summed
// over jobs, per-job cell outcomes, and the Go runtime gauges — all in
// the hand-rolled text format (no client dependency).
func TestMetricsObsRollups(t *testing.T) {
	_, c := newService(t, t.TempDir(), server.Config{Workers: 2, Sim: fakeSim})
	ctx := context.Background()
	submit := func(spec campaign.Spec, name string) server.JobInfo {
		t.Helper()
		info, err := c.Submit(ctx, spec, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, info.ID, nil); err != nil {
			t.Fatal(err)
		}
		return info
	}
	info := submit(tinySpec(), "rollup")
	// A job name is the client's: control bytes and every character the
	// format escapes must come out as a parseable label value.
	hostileSpec := tinySpec()
	hostileSpec.Base.Seed = 2 // cells of its own: every one computed
	hostile := submit(hostileSpec, "a\tb\x00\"\\\n")

	text := scrapeMetrics(t, c)
	for _, series := range []string{
		// Every glossary counter appears as an aggregate series.
		"svard_obs_sim_ticks_total",
		"svard_obs_skipped_cycles_total",
		"svard_obs_scan_passes_total",
		// The injected fake sim computes every cell of both jobs.
		"svard_obs_cells_computed_total 10",
		"svard_obs_cells_served_total 0",
		// Per-job rollups carry the job identity.
		`svard_job_cells{id="` + info.ID + `",name="rollup",outcome="computed"} 5`,
		`svard_job_sim_ticks{id="` + info.ID + `",name="rollup"}`,
		`svard_job_cells{id="` + hostile.ID + `",name="a` + "\tb\x00" + `\"\\\n",outcome="computed"} 5`,
		// Go runtime gauges.
		"go_goroutines",
		"go_heap_inuse_bytes",
		"go_gc_pause_seconds_total",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "svard_job_") {
			if err := labelEscapes(line); err != nil {
				t.Errorf("%q: %v", line, err)
			}
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", text)
	}
}

// labelEscapes checks a series line's label values against the text
// format: UTF-8, closed, and escaped with \\, \" and \n only.
func labelEscapes(line string) error {
	if !utf8.ValidString(line) {
		return errors.New("not UTF-8")
	}
	quoted := false
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '"':
			quoted = !quoted
		case quoted && line[i] == '\\':
			i++
			if i == len(line) || !strings.ContainsRune(`\"n`, rune(line[i])) {
				return fmt.Errorf("undefined escape at byte %d", i-1)
			}
		}
	}
	if quoted {
		return errors.New("unterminated label value")
	}
	return nil
}
