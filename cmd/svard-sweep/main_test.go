package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svard/internal/campaign"
	"svard/internal/sim"
)

// TestReadSpecRefusesUnknownFields: a -spec file that sets a field the
// campaign spec does not have is an error naming the field, never a
// silent default — above all Base.Core and Base.NoSkip, which the
// simulator no longer takes. What -print-spec writes reads back as the
// same campaign.
func TestReadSpecRefusesUnknownFields(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		p := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ body, want string }{
		{`{"base":{"Cores":2,"Core":{"LLCWays":0}}}`, `unknown field "Core"`},
		{`{"base":{"Cores":2,"NoSkip":true}}`, `unknown field "NoSkip"`},
		{`{"defences":["para"]}`, `unknown field "defences"`},
		{`{"base":{"Cores":2}} {}`, "data after the spec"},
	} {
		spec := campaign.Spec{Base: sim.DefaultConfig()}
		if err := campaign.ReadSpec(write(tc.body), &spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error saying %s", tc.body, err, tc.want)
		}
	}

	valid := campaign.Spec{Base: sim.DefaultConfig(), Mixes: [][]string{{"mcf06", "lbm06"}}, Defenses: []string{"para"}}
	valid.Base.Cores = 2
	plan, err := valid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(plan.Spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back campaign.Spec
	if err := campaign.ReadSpec(write(string(b)), &back); err != nil {
		t.Fatalf("the printed spec does not read back: %v", err)
	}
	if back.Fingerprint() != plan.Spec.Fingerprint() {
		t.Error("the printed spec reads back as another campaign")
	}
}
