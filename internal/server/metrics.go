package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"svard/internal/obs"
)

// handleHealthz is the liveness/readiness probe: cheap, allocation-light,
// and truthful — it reports the scheduler's aggregate state so an
// orchestrator (or a curl) sees queue pressure at a glance.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := s.sched.stateCounts()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"queued":         counts[StateQueued],
		"running":        counts[StateRunning],
		"workers":        s.sched.workers,
		"workers_busy":   s.sched.busyWorkers(),
	})
}

// handleMetrics renders Prometheus text exposition format (version
// 0.0.4, the plain-text scrape format every Prometheus server accepts)
// without taking a client dependency: the counters are all simple
// atomics and gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	counts := s.sched.stateCounts()
	uptime := time.Since(s.start).Seconds()
	cells := s.sched.cellsDone.Load()
	rate := 0.0
	if uptime > 0 {
		rate = float64(cells) / uptime
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	m("# HELP svard_cache_hits_total Lookups served without recomputing, by layer.")
	m("# TYPE svard_cache_hits_total counter")
	m(`svard_cache_hits_total{layer="mem"} %d`, st.MemHits)
	m(`svard_cache_hits_total{layer="disk"} %d`, st.DiskHits)
	m(`svard_cache_hits_total{layer="dedup"} %d`, st.Deduped)
	m(`svard_cache_hits_total{layer="remote"} %d`, st.RemoteHits)
	m("# HELP svard_cache_misses_total Lookups that computed a fresh cell.")
	m("# TYPE svard_cache_misses_total counter")
	m("svard_cache_misses_total %d", st.Misses)
	m("# HELP svard_cache_remote_misses_total Remote object-store lookups that found nothing.")
	m("# TYPE svard_cache_remote_misses_total counter")
	m("svard_cache_remote_misses_total %d", st.RemoteMisses)
	m("# HELP svard_cache_remote_errors_total Remote object-store operations that failed (the store degraded to local compute).")
	m("# TYPE svard_cache_remote_errors_total counter")
	m("svard_cache_remote_errors_total %d", st.RemoteErrors)
	m("# HELP svard_cache_corrupt_total On-disk entries that failed to load and were recomputed.")
	m("# TYPE svard_cache_corrupt_total counter")
	m("svard_cache_corrupt_total %d", st.Corrupt)
	m("# HELP svard_cache_writes_total Entries persisted to disk.")
	m("# TYPE svard_cache_writes_total counter")
	m("svard_cache_writes_total %d", st.Writes)
	m("# HELP svard_cache_entries Entries currently on disk.")
	m("# TYPE svard_cache_entries gauge")
	m("svard_cache_entries %d", st.Entries)
	m("# HELP svard_cache_disk_bytes Bytes the on-disk entries occupy.")
	m("# TYPE svard_cache_disk_bytes gauge")
	m("svard_cache_disk_bytes %d", st.DiskBytes)

	m("# HELP svard_jobs Jobs by state.")
	m("# TYPE svard_jobs gauge")
	for _, state := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		m(`svard_jobs{state=%q} %d`, string(state), counts[state])
	}
	m("# HELP svard_queue_depth Jobs waiting for admission.")
	m("# TYPE svard_queue_depth gauge")
	m("svard_queue_depth %d", s.sched.queueDepth())
	m("# HELP svard_workers Configured shared worker slots.")
	m("# TYPE svard_workers gauge")
	m("svard_workers %d", s.sched.workers)
	m("# HELP svard_workers_busy Worker slots currently computing a cell.")
	m("# TYPE svard_workers_busy gauge")
	m("svard_workers_busy %d", s.sched.busyWorkers())

	m("# HELP svard_cells_completed_total Cells completed across all jobs (cache hits included).")
	m("# TYPE svard_cells_completed_total counter")
	m("svard_cells_completed_total %d", cells)
	m("# HELP svard_cells_per_second Completed cells per second of uptime (prefer rate() over svard_cells_completed_total for windows).")
	m("# TYPE svard_cells_per_second gauge")
	m("svard_cells_per_second %g", rate)
	m("# HELP svard_uptime_seconds Seconds since the service started.")
	m("# TYPE svard_uptime_seconds counter")
	m("svard_uptime_seconds %g", uptime)

	// Flight-recorder rollups: the full obs counter glossary summed
	// across all retained jobs and compute batches, plus a compact
	// per-job breakdown (the full per-cell detail lives behind GET
	// /api/v1/jobs/{id}/trace).
	agg, rollups := s.sched.traceRollups()
	aggMap := agg.Map()
	for _, info := range obs.Glossary() {
		name := "svard_obs_" + info.Name + "_total"
		m("# HELP %s %s (summed over retained jobs and compute batches).", name, info.Help)
		m("# TYPE %s counter", name)
		m("%s %d", name, aggMap[info.Name])
	}
	m("# HELP svard_job_cells Cells per job by cache outcome.")
	m("# TYPE svard_job_cells gauge")
	m("# HELP svard_job_sim_ticks Simulated cycles actually ticked, per job.")
	m("# TYPE svard_job_sim_ticks gauge")
	m("# HELP svard_job_skipped_cycles Cycles elided by the event engine, per job.")
	m("# TYPE svard_job_skipped_cycles gauge")
	for _, r := range rollups {
		job := "id=" + labelValue(r.info.ID) + ",name=" + labelValue(r.info.Name)
		m(`svard_job_cells{%s,outcome="computed"} %d`, job, r.totals.CellsComputed)
		m(`svard_job_cells{%s,outcome="served"} %d`, job, r.totals.CellsServed)
		m(`svard_job_sim_ticks{%s} %d`, job, r.totals.Ticks)
		m(`svard_job_skipped_cycles{%s} %d`, job, r.totals.SkippedCycles)
	}

	// Go runtime gauges, so a scrape sees service health without a
	// client-library dependency.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m("# HELP go_goroutines Number of goroutines that currently exist.")
	m("# TYPE go_goroutines gauge")
	m("go_goroutines %d", runtime.NumGoroutine())
	m("# HELP go_heap_inuse_bytes Heap bytes in in-use spans.")
	m("# TYPE go_heap_inuse_bytes gauge")
	m("go_heap_inuse_bytes %d", ms.HeapInuse)
	m("# HELP go_gc_pause_seconds_total Cumulative stop-the-world GC pause time.")
	m("# TYPE go_gc_pause_seconds_total counter")
	m("go_gc_pause_seconds_total %g", float64(ms.PauseTotalNs)/1e9)
	m("# HELP go_gc_cycles_total Completed GC cycles.")
	m("# TYPE go_gc_cycles_total counter")
	m("go_gc_cycles_total %d", ms.NumGC)
}

// labelEscaper applies the only three escapes the text format defines
// for a label value.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelValue quotes s as a label value of the text format: backslash,
// double quote and line feed escaped, every other character as is (Go's
// %q would write \t or \x00, which no scraper parses), and invalid UTF-8
// replaced, since a label value is UTF-8.
func labelValue(s string) string {
	return `"` + labelEscaper.Replace(strings.ToValidUTF8(s, "\uFFFD")) + `"`
}

// jobRollup pairs a job's identity with its flight-recorder totals.
type jobRollup struct {
	info   JobInfo
	totals obs.Counters
}

// traceRollups snapshots every retained job's counter totals in
// submission order, and sums them with every compute batch's.
func (s *Scheduler) traceRollups() (sum obs.Counters, jobs []jobRollup) {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	sum = s.batches
	s.mu.Unlock()
	jobs = make([]jobRollup, 0, len(order))
	for _, j := range order {
		r := jobRollup{info: j.info(), totals: j.trace.Totals()}
		sum.Add(r.totals)
		jobs = append(jobs, r)
	}
	return sum, jobs
}

// addBatch adds the counters of a compute batch's cells to the
// scheduler's total.
func (s *Scheduler) addBatch(recs []obs.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range recs {
		s.batches.Add(recs[i].Counters)
	}
}
