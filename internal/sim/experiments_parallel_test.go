package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestRunFig12ParallelMatchesSerial is the determinism contract of the
// exec-pool refactor: a parallel sweep must be cell-for-cell identical
// to Workers=1.
func TestRunFig12ParallelMatchesSerial(t *testing.T) {
	opt := Fig12Options{
		Base:     tinyBase(),
		Mixes:    [][]string{{"mcf06", "ycsb-a"}, {"lbm06", "tpcc"}},
		NRHs:     []float64{1024, 64},
		Defenses: []string{"para", "rrs"},
		Profiles: []string{"S0"},
	}
	opt.Workers = 1
	serial, err := RunFig12Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	parallel, err := RunFig12Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel cells differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestRunFig13ParallelMatchesSerial(t *testing.T) {
	opt := Fig13Options{
		Base:     tinyBase(),
		NRH:      64,
		Benign:   []string{"mcf06"},
		Profiles: []string{"S0"},
	}
	opt.Workers = 1
	serial, err := RunFig13Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	parallel, err := RunFig13Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel cells differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestRunFig12PropagatesRunErrors checks a failing cell surfaces as an
// error (not a panic or a silent zero cell) through the pool.
func TestRunFig12PropagatesRunErrors(t *testing.T) {
	_, err := RunFig12Ctx(context.Background(), Fig12Options{
		Base:     tinyBase(),
		Mixes:    [][]string{{"no-such-workload", "ycsb-a"}},
		NRHs:     []float64{64},
		Defenses: []string{"rrs"},
		Profiles: []string{"S0"},
		Workers:  4,
	})
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("error %q does not name the bad workload", err)
	}
}

// TestRunFig13CoreValidation: the seed code panicked on
// mix[:Cores] for Cores > 8 and divided by zero benign cores for
// Cores = 1; both must be descriptive errors instead.
func TestRunFig13CoreValidation(t *testing.T) {
	base := tinyBase()
	base.Cores = 12
	if _, err := RunFig13Ctx(context.Background(), Fig13Options{Base: base}); err == nil {
		t.Error("Cores=12 with 7 benign workloads: expected error, got nil")
	} else if !strings.Contains(err.Error(), "12 cores") {
		t.Errorf("error %q does not describe the core count", err)
	}

	base.Cores = 1
	if _, err := RunFig13Ctx(context.Background(), Fig13Options{Base: base}); err == nil {
		t.Error("Cores=1: expected error, got nil")
	}

	base.Cores = 0
	if _, err := RunFig13Ctx(context.Background(), Fig13Options{Base: base}); err == nil {
		t.Error("Cores=0: expected error, got nil")
	}
}

// TestMergeCellsHighSpeedupMin: the seed initialized WSMin with the
// sentinel 2, so any cell whose minimum weighted speedup exceeded 2
// reported a wrong minimum.
func TestMergeCellsHighSpeedupMin(t *testing.T) {
	cells := []Fig12Cell{
		{WS: 3, WSMin: 2.5, WSMax: 3.5},
		{WS: 4, WSMin: 3.0, WSMax: 5.0},
	}
	out := mergeCells("rrs", 64, "NoSvard", cells)
	if out.WSMin != 2.5 {
		t.Errorf("WSMin = %v, want 2.5 (sentinel bug)", out.WSMin)
	}
	if out.WSMax != 5.0 {
		t.Errorf("WSMax = %v, want 5.0", out.WSMax)
	}
	if out.WS != 3.5 {
		t.Errorf("WS = %v, want 3.5", out.WS)
	}

	empty := mergeCells("rrs", 64, "NoSvard", nil)
	if math.IsInf(empty.WSMin, 0) || math.IsInf(empty.WSMax, 0) || math.IsNaN(empty.WS) {
		t.Errorf("empty merge not sanitized: %+v", empty)
	}
}
