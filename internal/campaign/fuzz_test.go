package campaign

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
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
