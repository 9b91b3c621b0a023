package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"svard/internal/disturb"
	"svard/internal/profile"
)

// builtModule returns the module key cfg's machine asks its table for,
// and that key's entry, built in a table of its own. Only cfg's module
// and backend matter; its mix is set to one core's.
func builtModule(tb testing.TB, cfg Config) (moduleKey, *moduleEntry) {
	tb.Helper()
	cfg.Cores, cfg.Mix = 1, []string{"mcf06"}
	l, err := newLayout(cfg, &moduleTable{})
	if err != nil {
		tb.Fatal(err)
	}
	return moduleKey{cfg.ModuleLabel, cfg.RowsPerBank, cfg.CellsPerRow, l.nchan * l.banksPerChan, cfg.Seed}, l.entry
}

// TestModuleTablesMatchModel: every entry of a module's per-row tables
// is bit for bit the scalar model's HCFirst and PressPsi of its row, and
// every profile bin is the safe level of that HCfirst, on DDR4 (32
// banks) and HBM2 (64 banks) geometry, however many cores the build
// fans out over.
func TestModuleTablesMatchModel(t *testing.T) {
	levels := disturb.HammerLevels()
	safeIdx := func(hc float64) uint8 {
		if i := disturb.LevelIndex(levels, hc); i > 0 {
			return uint8(i - 1)
		}
		return profile.BinBelowGrid
	}
	for _, procs := range []int{1, 4} {
		for _, backend := range []string{"ddr4-3200", "hbm2"} {
			for _, label := range []string{"S0", "M0", "H1", "M3"} {
				t.Run(fmt.Sprintf("procs=%d/%s/%s", procs, backend, label), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cfg := tinyBase()
					cfg.Backend = backend
					cfg.ModuleLabel = label
					key, e := builtModule(t, cfg)
					model := e.mod.NewModel()
					rows := key.rows
					p := e.prof.P
					if p.Label != label || p.RowsPerBank != rows || len(p.Banks) != key.banks || !reflect.DeepEqual(p.Levels, levels) {
						t.Fatalf("profile %q rows %d banks %d levels %v, want %q, %d, %d, %v",
							p.Label, p.RowsPerBank, len(p.Banks), p.Levels, label, rows, key.banks, levels)
					}
					bad := 0
					for b := 0; b < key.banks; b++ {
						if p.Banks[b] != b {
							t.Fatalf("profile bank %d is bank %d", b, p.Banks[b])
						}
						for r := 0; r < rows; r++ {
							i := b*rows + r
							hc, psi := model.HCFirst(b, r), model.PressPsi(b, r)
							if math.Float64bits(e.hcBase[i]) != math.Float64bits(hc) ||
								math.Float64bits(e.psi[i]) != math.Float64bits(psi) ||
								p.Bins[b][r] != safeIdx(hc) {
								if bad++; bad <= 5 {
									t.Errorf("bank %d row %d: hcBase %v psi %v bin %d, want %v %v %d",
										b, r, e.hcBase[i], e.psi[i], p.Bins[b][r], hc, psi, safeIdx(hc))
								}
							}
						}
					}
					if bad > 0 {
						t.Errorf("%d of %d rows differ", bad, key.banks*rows)
					}
				})
			}
		}
	}
}

// TestModuleBuildConcurrent: requests for distinct and identical keys
// arriving at one table at once each get their key's one entry, and
// every entry's tables equal a build of the same key on one core.
func TestModuleBuildConcurrent(t *testing.T) {
	keys := []moduleKey{
		{label: "S0", rows: 512, cells: 512, banks: 32, seed: 1},
		{label: "S0", rows: 512, cells: 512, banks: 32, seed: 2},
		{label: "H1", rows: 512, cells: 512, banks: 64, seed: 1},
	}
	const perKey = 3
	table := &moduleTable{}
	got := make([][perKey]*moduleEntry, len(keys))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k, key := range keys {
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				e, err := table.get(key)
				if err != nil {
					t.Error(err)
				}
				got[k][j] = e
			}()
		}
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for k, key := range keys {
		e := got[k][0]
		for j := 1; j < perKey; j++ {
			if got[k][j] != e {
				t.Errorf("%v: request %d got another entry than request 0", key, j)
			}
		}
		for k2 := 0; k2 < k; k2++ {
			if got[k2][0] == e {
				t.Errorf("%v shares an entry with %v", key, keys[k2])
			}
		}
		serial := &moduleEntry{}
		serial.build(key)
		if serial.err != nil {
			t.Fatal(serial.err)
		}
		if !reflect.DeepEqual(e.hcBase, serial.hcBase) || !reflect.DeepEqual(e.psi, serial.psi) ||
			!reflect.DeepEqual(e.prof.P, serial.prof.P) || !reflect.DeepEqual(e.mod.Params, serial.mod.Params) {
			t.Errorf("%v: the concurrent build differs from a one-core build", key)
		}
	}
}

// BenchmarkModuleBuild times one module's calibration, profile and
// per-row tables at the fixture's geometry (the benchmark's), each
// iteration a fresh seed, on DDR4 (32 banks) and HBM2 (64 banks).
func BenchmarkModuleBuild(b *testing.B) {
	for _, backend := range []string{"ddr4-3200", "hbm2"} {
		b.Run(backend, func(b *testing.B) {
			cfg := tinyBase()
			cfg.Backend = backend
			key, _ := builtModule(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key.seed = uint64(i) + 2
				e := &moduleEntry{}
				e.build(key)
				if e.err != nil {
					b.Fatal(e.err)
				}
			}
		})
	}
}
