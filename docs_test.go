package svard

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests holds the prose to the code three ways.
//
// Every Test… or Fuzz… name the prose docs cite (EXPERIMENTS.md,
// README.md and the repository's skill notes, SKILL.md) is a test of this
// tree, so a rename or a deletion cannot leave the docs pointing at
// nothing. A cited name resolves when a test of that name is declared, or
// one it is a prefix of (the docs quote `-run` patterns, which match by
// prefix, and subtests by their parent's name).
//
// Every section name a Go file or a doc cites as EXPERIMENTS.md followed
// by a comma or 's and a quoted name is a heading or a bold label of
// EXPERIMENTS.md, compared case-insensitively, whole or as the start of
// the heading ("Distributed fabric" names the heading that goes on with
// the package it documents).
//
// Every ## section of EXPERIMENTS.md but the index cites a test, so each
// mechanism names what pins it.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := map[string]bool{}
	docs := []string{"EXPERIMENTS.md", "README.md"}
	var sources []string // Go files that may cite EXPERIMENTS.md's sections
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case d.Name() == "SKILL.md":
			docs = append(docs, path)
		case strings.HasSuffix(path, ".go"):
			sources = append(sources, path)
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
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
	text := map[string]string{}
	n := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text[doc] = string(b)
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

	// The headings and bold labels of EXPERIMENTS.md, and its ## sections,
	// outside fenced code.
	var labels []string
	type section struct{ title, body string }
	var sections []section
	bold := regexp.MustCompile(`\*\*([^*]+)\*\*`)
	fenced := false
	for _, line := range strings.Split(text["EXPERIMENTS.md"], "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if !fenced && strings.HasPrefix(line, "#") {
			title := strings.TrimSpace(strings.TrimLeft(line, "#"))
			labels = append(labels, title)
			if strings.HasPrefix(line, "## ") {
				sections = append(sections, section{title: title})
				continue
			}
		}
		if !fenced {
			for _, m := range bold.FindAllStringSubmatch(line, -1) {
				labels = append(labels, m[1])
			}
		}
		if len(sections) > 0 {
			sections[len(sections)-1].body += line + "\n"
		}
	}
	wordGoesOn := regexp.MustCompile(`^[\pL\pN_]`)
	known := func(c string) bool {
		c = strings.ToLower(strings.Join(strings.Fields(c), " "))
		for _, l := range labels {
			l = strings.ToLower(l)
			if strings.HasPrefix(l, c) && !wordGoesOn.MatchString(l[len(c):]) {
				return true
			}
		}
		return false
	}
	citation := regexp.MustCompile(`EXPERIMENTS\.md(?:,|'s)\s*(?://\s*)?"([^"]+)"`)
	for _, path := range append(sources, docs...) {
		b, ok := text[path]
		if !ok {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b = string(raw)
		}
		for _, m := range citation.FindAllStringSubmatch(b, -1) {
			if !known(m[1]) {
				t.Errorf("%s cites EXPERIMENTS.md's %q, which is no heading or bold label there", path, m[1])
			}
		}
	}

	if len(sections) < 10 {
		t.Fatalf("EXPERIMENTS.md has %d ## sections: the section pattern has gone stale", len(sections))
	}
	for _, s := range sections[1:] { // the first is the index
		if !cited.MatchString(s.body) {
			t.Errorf("EXPERIMENTS.md's section %q cites no test", s.title)
		}
	}
}
