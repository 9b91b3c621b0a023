package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"svard/internal/cache"
)

// journalHeader's version is independent of cache.SchemaVersion: the
// journal stores only accounting, never results.
const journalHeader = "svard-campaign v1"

// Journal is the campaign checkpoint: an append-only file of completed
// job keys, named by the campaign fingerprint under the cache directory.
// It exists for accounting and observability (how far did the
// interrupted run get), not correctness — the result cache alone makes a
// restart skip completed work. A torn final line from a crash is
// skipped on resume, and the corresponding cell simply replays as a
// cache hit.
//
// The engine and the distributed fabric's dispatch plane journal through
// the same type, format, and path scheme, so a campaign interrupted under
// the fabric resumes under a local engine run and vice versa.
type Journal struct {
	mu           sync.Mutex
	f            *os.File // nil: memory-only store, accounting is per-process
	seen         map[string]bool
	resumedCount int
}

func journalPath(dir, fingerprint string) string {
	return filepath.Join(dir, "campaign-"+fingerprint[:16]+".journal")
}

// OpenJournal opens the campaign's journal under the cache directory (an
// empty dir keeps it in memory only). With resume set and an existing
// journal for the same fingerprint, previously completed keys are
// loaded; otherwise a fresh journal replaces whatever was there.
func OpenJournal(dir, fingerprint string, total int, resume bool) (*Journal, error) {
	j := &Journal{seen: make(map[string]bool)}
	if dir == "" {
		return j, nil
	}
	path := journalPath(dir, fingerprint)

	if resume {
		if b, err := os.ReadFile(path); err == nil {
			lines := strings.Split(string(b), "\n")
			if len(lines) > 0 && strings.HasPrefix(lines[0], journalHeader+" "+fingerprint) {
				for _, line := range lines[1:] {
					line = strings.TrimSpace(line)
					if cache.WellFormedKey(line) { // anything else: torn write or foreign bytes
						j.seen[line] = true
					}
				}
				j.resumedCount = len(j.seen)
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, fmt.Errorf("campaign: reopen journal: %w", err)
				}
				// A crash mid-append can leave the file without a trailing
				// newline; terminate the torn line so the next key is not
				// glued onto it (and lost with it on the following resume).
				if len(b) > 0 && b[len(b)-1] != '\n' {
					fmt.Fprintln(f)
				}
				j.f = f
				return j, nil
			}
			// Header mismatch: a different (or corrupt) campaign's file
			// under a colliding name — start over rather than miscount.
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: create journal: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%s %s total=%d\n", journalHeader, fingerprint, total); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: write journal header: %w", err)
	}
	j.f = f
	return j, nil
}

// Resumed returns how many jobs were already journaled when the run
// started.
func (j *Journal) Resumed() int { return j.resumedCount }

// Done records one completed job (idempotent across restarts, so a
// resumed run's cache hits do not duplicate lines).
func (j *Journal) Done(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seen[key] {
		return
	}
	j.seen[key] = true
	if j.f != nil {
		// A failed append only degrades accounting; never the campaign.
		fmt.Fprintln(j.f, key)
	}
}

// Close releases the journal file; the record stays on disk for the next
// resume.
func (j *Journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// Seen reports whether key is already journaled.
func (j *Journal) Seen(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seen[key]
}
