package sim

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// update regenerates the golden fixtures under testdata/:
//
//	go test ./internal/sim/ -run Golden -update
//
// The fixtures pin the exact cell values of a small Fig. 12/13 sweep, so
// any refactor of the sweep machinery (job enumeration, runner routing,
// metric folding, caching) must prove bit-identical output against the
// recorded seed behavior. Floats are compared exactly: encoding/json
// round-trips float64 losslessly, and the simulator is deterministic by
// contract.
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// Fig12GoldenFile and Fig13GoldenFile record both the swept options and
// the resulting cells, so an out-of-package consumer (the campaign
// engine's resume test) can rebuild the identical sweep from the fixture
// alone, and drift between the fixture and the in-code options is
// detected rather than silently compared.
type Fig12GoldenFile struct {
	Base     Config
	Mixes    [][]string
	NRHs     []float64
	Defenses []string
	Profiles []string
	Cells    []Fig12Cell
}

type Fig13GoldenFile struct {
	Base     Config
	NRH      float64
	Benign   []string
	Profiles []string
	Cells    []Fig13Cell
}

// goldenFig12Options is the fixture sweep: small enough for seconds-scale
// runs, wide enough to cover two defenses, two thresholds, both Svärd
// settings, and a min-max span over two mixes.
func goldenFig12Options() Fig12Options {
	return Fig12Options{
		Base:     tinyBase(),
		Mixes:    [][]string{{"mcf06", "ycsb-a"}, {"lbm06", "tpcc"}},
		NRHs:     []float64{1024, 64},
		Defenses: []string{"para", "rrs"},
		Profiles: []string{"S0"},
	}
}

// goldenFig12HBM2Options is the HBM2-backend fixture sweep: the same
// shape as the DDR4 fixture but narrower (one defense), since its job
// is pinning the multi-channel backend's numerical behavior, not
// re-covering the sweep machinery.
func goldenFig12HBM2Options() Fig12Options {
	base := tinyBase()
	base.Backend = "hbm2"
	return Fig12Options{
		Base:     base,
		Mixes:    [][]string{{"mcf06", "ycsb-a"}, {"lbm06", "tpcc"}},
		NRHs:     []float64{1024, 64},
		Defenses: []string{"para"},
		Profiles: []string{"S0"},
	}
}

func goldenFig13Options() Fig13Options {
	return Fig13Options{
		Base:     tinyBase(),
		NRH:      64,
		Benign:   []string{"mcf06"},
		Profiles: []string{"S0"},
	}
}

func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", path)
}

func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// compareCells checks got against want field-by-field via reflection, so
// a new cell field is compared the day it is added and every mismatch
// names the exact field.
func compareCells[T any](t *testing.T, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range got {
		gv, wv := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < gv.NumField(); f++ {
			if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
				t.Errorf("cell %d (%+v): field %s = %v, golden %v",
					i, want[i], gv.Type().Field(f).Name, gv.Field(f).Interface(), wv.Field(f).Interface())
			}
		}
	}
}

func TestGoldenFig12(t *testing.T) {
	opt := goldenFig12Options()
	cells, err := RunFig12Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig12_golden.json")
	if *update {
		writeGolden(t, path, Fig12GoldenFile{
			Base: opt.Base, Mixes: opt.Mixes, NRHs: opt.NRHs,
			Defenses: opt.Defenses, Profiles: opt.Profiles, Cells: cells,
		})
		return
	}
	var golden Fig12GoldenFile
	readGolden(t, path, &golden)
	want := Fig12GoldenFile{
		Base: opt.Base, Mixes: opt.Mixes, NRHs: opt.NRHs,
		Defenses: opt.Defenses, Profiles: opt.Profiles,
	}
	got := golden
	got.Cells = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden fixture swept different options than the test; regenerate with -update\nfixture: %+v\ntest:    %+v", got, want)
	}
	compareCells(t, cells, golden.Cells)
}

// TestGoldenFig12HBM2 pins the HBM2 backend's cell values, so backend
// or routing changes that alter HBM2 results are caught the same way
// DDR4 regressions are — by fixture, not by eye.
func TestGoldenFig12HBM2(t *testing.T) {
	opt := goldenFig12HBM2Options()
	cells, err := RunFig12Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig12_hbm2_golden.json")
	if *update {
		writeGolden(t, path, Fig12GoldenFile{
			Base: opt.Base, Mixes: opt.Mixes, NRHs: opt.NRHs,
			Defenses: opt.Defenses, Profiles: opt.Profiles, Cells: cells,
		})
		return
	}
	var golden Fig12GoldenFile
	readGolden(t, path, &golden)
	want := Fig12GoldenFile{
		Base: opt.Base, Mixes: opt.Mixes, NRHs: opt.NRHs,
		Defenses: opt.Defenses, Profiles: opt.Profiles,
	}
	got := golden
	got.Cells = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden fixture swept different options than the test; regenerate with -update\nfixture: %+v\ntest:    %+v", got, want)
	}
	compareCells(t, cells, golden.Cells)
}

func TestGoldenFig13(t *testing.T) {
	opt := goldenFig13Options()
	cells, err := RunFig13Ctx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig13_golden.json")
	if *update {
		writeGolden(t, path, Fig13GoldenFile{
			Base: opt.Base, NRH: opt.NRH, Benign: opt.Benign,
			Profiles: opt.Profiles, Cells: cells,
		})
		return
	}
	var golden Fig13GoldenFile
	readGolden(t, path, &golden)
	want := Fig13GoldenFile{Base: opt.Base, NRH: opt.NRH, Benign: opt.Benign, Profiles: opt.Profiles}
	got := golden
	got.Cells = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden fixture swept different options than the test; regenerate with -update\nfixture: %+v\ntest:    %+v", got, want)
	}
	compareCells(t, cells, golden.Cells)
}
