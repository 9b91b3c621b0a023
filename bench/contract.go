package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// The limits BENCHMARK.json must stay inside; the driver refuses a file
// outside any of them before a single run.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxBound    = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is set
// only on end-to-end metrics: the share of the parent's median by which
// the metric may worsen before a change is a regression.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// contract is BENCHMARK.json: the names, units, directions and bounds
// the benchmark's output is checked against.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json — run.sh and `go run -C bench .` start the program inside
// bench/, tests start in bench/ too, and a built binary may start
// anywhere below the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

func loadContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func (c *contract) validate() error {
	if n := len(c.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", n, maxEndToEnd)
	}
	if n := len(c.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", n, maxPerLayer)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", c.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range c.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		if err := use(m.Name); err != nil {
			return err
		}
		if err := m.check(); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound {
			return fmt.Errorf("metric %s: bound must be in (0, %v]", m.Name, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return errors.New(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, m := range c.PerLayer {
		if err := use(m.Name); err != nil {
			return err
		}
		if err := m.check(); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	return nil
}

func (m metricSpec) check() error {
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
	}
	return nil
}

func (c *contract) workload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// value is one emitted metric. N is the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// ledger collects the metrics of one run by name.
type ledger map[string]value

func (l ledger) set(name, unit string, v float64, n int) {
	l[name] = value{Value: v, Unit: unit, N: n}
}

// conform checks the ledger against the declared metrics: every declared
// name present with its declared unit, and nothing undeclared. A
// benchmark that drifts from BENCHMARK.json fails here, not in the
// driver.
func (l ledger) conform(specs []metricSpec) error {
	var errs []error
	declared := map[string]bool{}
	for _, m := range specs {
		declared[m.Name] = true
		v, ok := l[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", m.Name))
		case v.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit))
		}
	}
	for name := range l {
		if !declared[name] {
			errs = append(errs, fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name))
		}
	}
	return errors.Join(errs...)
}
