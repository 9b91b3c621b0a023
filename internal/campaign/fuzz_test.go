package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"svard/internal/cache"
)

var journalKeyLine = regexp.MustCompile(`^[0-9a-f]{64}$`)

// FuzzJournalResume: a journal file is read back after crashes and may
// sit in a shared cache directory, so whatever bytes it holds, resuming
// must not panic, and Resumed() must equal the number of distinct
// well-formed keys following a header for this campaign's fingerprint —
// zero under any other header.
func FuzzJournalResume(f *testing.F) {
	fp := strings.Repeat("ab", 32)
	header := journalHeader + " " + fp + " total=10\n"
	k1, k2 := strings.Repeat("11", 32), strings.Repeat("22", 32)
	f.Add([]byte(header + k1 + "\n" + k2 + "\n" + k1 + "\n"))
	f.Add([]byte(header + k1 + "\n" + strings.Repeat("33", 10))) // torn final line
	f.Add([]byte(header + strings.Repeat("zz", 32) + "\n"))      // right length, not a key
	f.Add([]byte(header + strings.Repeat("AB", 32) + "\n  " + k2 + " \r\n"))
	f.Add([]byte(journalHeader + " " + strings.Repeat("cd", 32) + " total=10\n" + k1 + "\n"))
	f.Add([]byte(k1 + "\n"))
	f.Add([]byte{})
	dir := f.TempDir() // one per fuzz worker process: executions are sequential
	f.Fuzz(func(t *testing.T, content []byte) {
		if err := os.WriteFile(journalPath(dir, fp), content, 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		if first, rest, _ := bytes.Cut(content, []byte("\n")); bytes.HasPrefix(first, []byte(journalHeader+" "+fp)) {
			distinct := map[string]bool{}
			for _, line := range strings.Split(string(rest), "\n") {
				if line = strings.TrimSpace(line); journalKeyLine.MatchString(line) {
					distinct[line] = true
				}
			}
			want = len(distinct)
		}
		j, err := OpenJournal(dir, fp, 10, true)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if j.Resumed() != want {
			t.Fatalf("Resumed() = %d, want %d for journal %q", j.Resumed(), want, content)
		}
	})
}

// FuzzSpecPlan: a spec arrives as JSON, from a -spec file or in the body
// of POST /api/v1/jobs, so whatever decodes must plan or be refused with
// an error — never a panic. A plan that is handed back must be stable:
// every cell has a well-formed cache key, and planning the plan's own
// (normalized) spec again yields the same fingerprint and the same keys.
func FuzzSpecPlan(f *testing.F) {
	golden, _ := goldenSpec(f)
	for _, spec := range []Spec{golden, tinySpec(), tinyPopulationSpec(), tinyTemporalSpec()} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"base":{"Cores":-1}}`))                          // panicked in the mix draw (makeslice)
	f.Add([]byte(`{"base":{"Cores":2},"mix_count":1099511627776}`)) // drew 2^40 mixes before validating
	// Expanded all 2^40 modules before the product of the axes was capped.
	f.Add([]byte(`{"base":{"Cores":2},"figures":["fig12"],"population":{"seed":1,"size":1099511627776}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var spec Spec
		if json.Unmarshal(b, &spec) != nil {
			return
		}
		plan, err := spec.Plan()
		if err != nil {
			return
		}
		again, err := plan.Spec.Plan()
		if err != nil {
			t.Fatalf("the plan's own spec is refused: %v", err)
		}
		if again.Fingerprint != plan.Fingerprint || len(again.Jobs) != len(plan.Jobs) {
			t.Fatalf("re-planning changed the campaign: fingerprint %s -> %s, %d -> %d jobs",
				plan.Fingerprint, again.Fingerprint, len(plan.Jobs), len(again.Jobs))
		}
		for i, j := range plan.Jobs {
			key := cache.Key(j.Config)
			if !cache.WellFormedKey(key) {
				t.Fatalf("job %d (%s) has key %q", i, j.Label, key)
			}
			if k := cache.Key(again.Jobs[i].Config); k != key {
				t.Fatalf("re-planning moved job %d (%s) from key %s to %s", i, j.Label, key, k)
			}
		}
	})
}
