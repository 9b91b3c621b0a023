package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"svard/internal/cache"
	"svard/internal/sim"
)

// journalHeader's version is independent of cache.SchemaVersion: the
// journal stores only accounting, never results.
const journalHeader = "svard-campaign v1"

// Record is one run of a campaign, kept the same way by every route that
// executes a plan — the engine and the fabric coordinator. Each completed
// cell is handed to it once: it journals the cell so an interrupted run
// resumes, and attributes it computed or served. At the end it folds the
// results the route delivered through the plan's figures.
//
// The journal is an append-only file of completed cell keys, named by the
// campaign fingerprint under the store's directory, so a campaign
// interrupted under the fabric resumes under a local engine run and vice
// versa. It is accounting, not correctness: the result cache alone makes
// a restart skip completed work, and a torn final line from a crash is
// skipped on resume (that cell simply runs again as a cache hit).
type Record struct {
	plan  Plan
	store *cache.Store

	mu sync.Mutex
	f  *os.File // nil: memory-only store, accounting is per-process
	// seen holds every journaled key: true for the ones an earlier run
	// wrote (loaded when the record opened), false for this run's.
	seen     map[string]bool
	computed int
	resumed  int
}

func journalPath(dir, fingerprint string) string {
	return filepath.Join(dir, "campaign-"+fingerprint[:16]+".journal")
}

// OpenRecord opens a run of plan over store. A journal for the same
// fingerprint under the store's directory is picked up: the cells an
// earlier run completed count as resumed when this run serves them.
// Without one (or under a foreign header) a fresh journal replaces
// whatever was there. A plan Spec.Plan did not build, or that was edited
// since, is refused before any cell runs.
func OpenRecord(store *cache.Store, plan Plan) (*Record, error) {
	if store == nil {
		return nil, errors.New("campaign: no result store")
	}
	if err := plan.check(); err != nil {
		return nil, err
	}
	fp := plan.Fingerprint
	r := &Record{plan: plan, store: store, seen: make(map[string]bool)}
	if store.Dir() == "" {
		return r, nil
	}
	// One open serves the load and every later append.
	f, err := os.OpenFile(journalPath(store.Dir(), fp), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	// Read it in one buffer sized by its length, as os.ReadFile does.
	var buf bytes.Buffer
	if info, err := f.Stat(); err == nil {
		buf.Grow(int(info.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	b := buf.Bytes()
	if first, rest, _ := strings.Cut(string(b), "\n"); strings.HasPrefix(first, journalHeader+" "+fp) {
		for rest != "" {
			var line string
			line, rest, _ = strings.Cut(rest, "\n")
			line = strings.TrimSpace(line)
			if cache.WellFormedKey(line) { // anything else: torn write or foreign bytes
				r.seen[line] = true
			}
		}
		// A crash mid-append can leave the file without a trailing
		// newline; terminate the torn line so the next key is not
		// glued onto it (and lost with it when the next run loads the file).
		if b[len(b)-1] != '\n' {
			fmt.Fprintln(f)
		}
		r.f = f
		return r, nil
	}
	// No journal, or a different (or corrupt) campaign's file under a
	// colliding name: start over rather than miscount.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: truncate journal: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%s %s total=%d\n", journalHeader, fp, len(plan.Jobs)); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: write journal header: %w", err)
	}
	r.f = f
	return r, nil
}

// Done journals one completed cell under the key the store derived for it
// and attributes it: computed means this run simulated the cell. A cell
// an earlier run journaled and this run served counts as resumed, so the
// resumed cells are always part of the served ones. Call it once per job,
// from any goroutine.
func (r *Record) Done(key string, computed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	earlier, journaled := r.seen[key]
	switch {
	case computed:
		r.computed++
	case earlier:
		r.resumed++
	}
	if journaled {
		return // idempotent across restarts: no duplicate lines
	}
	r.seen[key] = false
	if r.f != nil {
		// A failed append only degrades accounting; never the campaign.
		fmt.Fprintln(r.f, key)
	}
}

// Outcome folds results — one per plan job, in job order — through the
// plan's figures and returns them with the run's attribution and the
// store's lookup counters.
func (r *Record) Outcome(results []sim.Result) *Outcome {
	r.mu.Lock()
	out := &Outcome{Total: len(r.plan.Jobs), Computed: r.computed, Resumed: r.resumed}
	r.mu.Unlock()
	out.Served = out.Total - out.Computed
	for _, p := range r.plan.parts {
		p.fold(results[:p.n], out)
		results = results[p.n:]
	}
	out.Stats = r.store.Counters()
	return out
}

// Close releases the journal file; the record of completed cells stays on
// disk for the next resume.
func (r *Record) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}
