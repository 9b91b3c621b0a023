package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestConfigValidateBackend: the validation entry the campaign spec and
// the server submit path use must accept every preset (and the empty
// alias) and reject unknown names with the presets listed.
func TestConfigValidateBackend(t *testing.T) {
	for _, be := range []string{"", "ddr4-3200", "hbm2"} {
		cfg := DefaultConfig()
		cfg.Backend = be
		if err := cfg.Validate(); err != nil {
			t.Errorf("backend %q rejected: %v", be, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Backend = "lpddr5"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown backend validated")
	}
	if !strings.Contains(err.Error(), "hbm2") {
		t.Errorf("error %q does not list the available presets", err)
	}
}

// TestConfigValidateScalars: a clock or threshold that is zero,
// negative, NaN or infinite is refused by Validate and by Run — a zero
// clock used to crash the simulation with an integer divide by zero, and
// a non-positive nRH to run to a silently wrong figure.
func TestConfigValidateScalars(t *testing.T) {
	for _, bad := range []float64{0, -3.2, math.NaN(), math.Inf(1)} {
		for field, set := range map[string]func(*Config){
			"CPUGHz": func(c *Config) { c.CPUGHz = bad },
			"NRH":    func(c *Config) { c.NRH = bad },
		} {
			cfg := diffBase()
			cfg.Mix = []string{"mcf06", "ycsb-a"}
			set(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s = %v: Validate returned %v", field, bad, err)
			}
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s = %v: Run accepted it", field, bad)
			}
		}
	}
}

// TestRunUnknownBackendErrors: an invalid backend must surface as an
// error from Run (and the pooled path), never a panic mid-build.
func TestRunUnknownBackendErrors(t *testing.T) {
	cfg := diffBase()
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.Backend = "gddr6"
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an unknown backend")
	}
	if _, err := PooledRun(cfg); err == nil {
		t.Error("PooledRun accepted an unknown backend")
	}
}

// TestBackendEmptyEqualsDDR4 pins the aliasing end to end: a run with
// Backend "" and one naming "ddr4-3200" explicitly are the same
// simulation, bit for bit.
func TestBackendEmptyEqualsDDR4(t *testing.T) {
	cfg := diffBase()
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	cfg.Defense = "para"
	implicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = "ddr4-3200"
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Errorf("empty backend diverged from ddr4-3200:\nimplicit: %+v\nexplicit: %+v", implicit, explicit)
	}
}

// TestHBM2SpreadsTraffic sanity-checks the channel router: on the HBM2
// preset every pseudo channel must see demand traffic (a router that
// folds everything onto channel 0 passes the differential tests, which
// only compare the two engines against each other).
func TestHBM2SpreadsTraffic(t *testing.T) {
	cfg := diffBase()
	cfg.Backend = "hbm2"
	cfg.Mix = []string{"mcf06", "ycsb-a"}
	m, err := newMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.mcs) != 4 {
		t.Fatalf("hbm2 machine has %d controllers, want 4 (2 channels x 2 pseudo channels)", len(m.mcs))
	}
	if _, finished := m.runSkip(cfg.MaxCycles); !finished {
		t.Fatalf("hbm2 run did not finish in %d cycles", cfg.MaxCycles)
	}
	for ch, mc := range m.mcs {
		if mc.Stats.Reads == 0 {
			t.Errorf("pseudo channel %d served no reads; router is not spreading traffic", ch)
		}
	}
}
