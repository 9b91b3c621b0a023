package svard

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests: every Test… or Fuzz… name the prose docs cite
// (EXPERIMENTS.md, README.md and the repository's skill notes, SKILL.md)
// is a test of this tree, so a rename or a deletion cannot leave the docs
// pointing at nothing. A cited name resolves when a test of that name is
// declared, or one it is a prefix of (the docs quote `-run` patterns,
// which match by prefix, and subtests by their parent's name).
func TestDocsCiteExistingTests(t *testing.T) {
	declared := map[string]bool{}
	docs := []string{"EXPERIMENTS.md", "README.md"}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case d.Name() == "SKILL.md":
			docs = append(docs, path)
		case strings.HasSuffix(path, "_test.go"):
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(b, -1) {
				declared[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(name string) bool {
		if declared[name] {
			return true
		}
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}

	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	n := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(b), -1) {
			n++
			if !resolves(name) {
				t.Errorf("%s cites %s, which no test in the tree declares", doc, name)
			}
		}
	}
	if n < 50 {
		t.Errorf("the docs cite %d tests: the citation pattern has gone stale", n)
	}
}
