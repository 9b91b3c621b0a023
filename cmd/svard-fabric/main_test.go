package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svard/internal/campaign"
)

// TestReadSpecRefusesUnknownFields: a -spec file whose base sets Core or
// NoSkip, which the simulator no longer takes, is an error naming the
// field. The spec CI's fabric smoke builds from the golden fixture's
// Base reads back whole.
func TestReadSpecRefusesUnknownFields(t *testing.T) {
	dir := t.TempDir()
	write := func(body []byte) string {
		p := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ body, want string }{
		{`{"base":{"Cores":2,"Core":{"MSHRs":16}}}`, `unknown field "Core"`},
		{`{"base":{"Cores":2,"NoSkip":false}}`, `unknown field "NoSkip"`},
	} {
		var spec campaign.Spec
		if err := campaign.ReadSpec(write([]byte(tc.body)), &spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error saying %s", tc.body, err, tc.want)
		}
	}

	b, err := os.ReadFile("../../internal/sim/testdata/fig12_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Base     json.RawMessage
		Mixes    [][]string
		NRHs     []float64
		Defenses []string
		Profiles []string
	}
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	smoke, err := json.Marshal(map[string]any{"figures": []string{"fig12"}, "base": golden.Base, "mixes": golden.Mixes,
		"nrhs": golden.NRHs, "defenses": golden.Defenses, "profiles": golden.Profiles})
	if err != nil {
		t.Fatal(err)
	}
	var spec campaign.Spec
	if err := campaign.ReadSpec(write(smoke), &spec); err != nil {
		t.Fatalf("the fixture's campaign does not read: %v", err)
	}
	if _, err := spec.Plan(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedSpecFailsFirst: a spec the decoder or the planner refuses
// is the command's error before anything else happens. The cache
// directory is never created, and the listen address, held by the test
// throughout, is never tried: a run that bound it first would fail on
// the bind instead.
func TestRefusedSpecFailsFirst(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := t.TempDir()
	for _, tc := range []struct{ body, want string }{
		{`{"base":{"Cores":2,"NoSkip":false}}`, `unknown field "NoSkip"`},
		{`{"base":{"Cores":-1}}`, "campaign: "},
	} {
		spec := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(spec, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		store := filepath.Join(dir, "store")
		err := run([]string{"-addr", ln.Addr().String(), "-cache-dir", store, "-spec", spec, "-q"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error saying %s", tc.body, err, tc.want)
		}
		if _, err := os.Stat(store); !os.IsNotExist(err) {
			t.Errorf("%s: the cache directory was created (%v)", tc.body, err)
		}
	}
}
