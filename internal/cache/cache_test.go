package cache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svard/internal/memctrl"
	"svard/internal/sim"
)

// fakeCompute returns a compute function that derives a deterministic
// result from the config (no real simulation) and counts invocations.
func fakeCompute(calls *atomic.Int64) func(sim.Config) (sim.Result, error) {
	return func(cfg sim.Config) (sim.Result, error) {
		if calls != nil {
			calls.Add(1)
		}
		return sim.Result{
			IPC:        []float64{cfg.NRH / 1024, float64(cfg.Cores)},
			Cycles:     uint64(cfg.Cores) * 1000,
			MC:         memctrl.Stats{Reads: uint64(cfg.RowsPerBank)},
			Violations: 7,
			Finished:   true,
		}, nil
	}
}

func testCfg(nrh float64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mix = []string{"mcf06", "lbm06"}
	cfg.Cores = 2
	cfg.NRH = nrh
	return cfg
}

func sameResult(t *testing.T, a, b sim.Result) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Violations != b.Violations || a.Finished != b.Finished ||
		a.MC != b.MC || len(a.IPC) != len(b.IPC) {
		t.Fatalf("results differ: %+v vs %+v", a, b)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("IPC[%d] differs: %v vs %v", i, a.IPC[i], b.IPC[i])
		}
	}
}

func TestMissThenMemoryHit(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	cold, coldKey, err := s.GetOrCompute(testCfg(64), fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	warm, warmKey, err := s.GetOrCompute(testCfg(64), fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, cold, warm)
	if want := Key(testCfg(64)); coldKey != want || warmKey != want {
		t.Errorf("returned keys %q (miss) / %q (hit), want the cell's key %q", coldKey, warmKey, want)
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	st := s.Stats()
	if st.Misses != 1 || st.MemHits != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %v", st)
	}
}

func TestDiskPersistenceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	var calls atomic.Int64
	cold, _, err := s1.GetOrCompute(testCfg(128), fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory (fresh process, in effect).
	s2, _ := Open(dir, 0)
	warm, _, err := s2.GetOrCompute(testCfg(128), fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, cold, warm)
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times across stores, want 1", calls.Load())
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("second store stats = %v", st)
	}
	if _, ok := s2.Get(Key(testCfg(128))); !ok {
		t.Error("Get: persisted key reported missing")
	}
	if _, ok := s2.Get(Key(testCfg(1))); ok {
		t.Error("Get: absent key reported present")
	}
}

// Corrupt or truncated entries fall back to recompute — never an error —
// and the recomputed result overwrites the bad entry.
func TestCorruptEntryRecomputes(t *testing.T) {
	for name, corrupt := range map[string]func(path string) error{
		"truncated": func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, b[:len(b)/2], 0o644)
		},
		"garbage": func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		},
		"wrong-schema": func(p string) error {
			return os.WriteFile(p, []byte(`{"schema":"svard-sim-v0","key":"x","result":{}}`), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1, _ := Open(dir, 0)
			var calls atomic.Int64
			cold, _, err := s1.GetOrCompute(testCfg(256), fakeCompute(&calls))
			if err != nil {
				t.Fatal(err)
			}
			if err := corrupt(s1.path(Key(testCfg(256)))); err != nil {
				t.Fatal(err)
			}

			s2, _ := Open(dir, 0)
			got, _, err := s2.GetOrCompute(testCfg(256), fakeCompute(&calls))
			if err != nil {
				t.Fatalf("corrupt entry surfaced as error: %v", err)
			}
			sameResult(t, cold, got)
			if calls.Load() != 2 {
				t.Errorf("compute ran %d times, want 2 (recompute)", calls.Load())
			}
			if st := s2.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Errorf("stats = %v", st)
			}

			// The bad entry was repaired in place.
			s3, _ := Open(dir, 0)
			if _, _, err := s3.GetOrCompute(testCfg(256), fakeCompute(&calls)); err != nil {
				t.Fatal(err)
			}
			if st := s3.Stats(); st.DiskHits != 1 {
				t.Errorf("repaired entry not served from disk: %v", st)
			}
		})
	}
}

// TestSchemaBumpInvalidatesOldEntries pins the svard-sim-v8 schema bump
// that came with Config losing Core and NoSkip (v7 came with refreshing
// each due rank independently, v6 with enforcing every DRAM timing rule
// mem.Timing carries, v5 with the write-drain fix, which folded the
// temporal v4 namespace into the one version). An entry an older binary left on disk
// — well-formed JSON, matching key, old schema string — must be
// recomputed and rewritten in place, never served and never surfaced as
// an error: the same config bytes now describe a different simulation.
func TestSchemaBumpInvalidatesOldEntries(t *testing.T) {
	if SchemaVersion != "svard-sim-v8" {
		t.Fatalf("SchemaVersion = %q, want svard-sim-v8 (if bumping, update this test with the new version)", SchemaVersion)
	}
	for _, old := range []string{"svard-sim-v3", "svard-sim-v4", "svard-sim-v5", "svard-sim-v6", "svard-sim-v7"} {
		t.Run(old, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testCfg(512)
			key := Key(cfg)
			stale := envelope{
				Schema: old,
				Key:    key,
				Result: sim.Result{Cycles: 1, Violations: 999, Finished: true},
			}
			b, err := json.Marshal(stale)
			if err != nil {
				t.Fatal(err)
			}
			p := s1.path(key)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}

			var calls atomic.Int64
			got, _, err := s1.GetOrCompute(cfg, fakeCompute(&calls))
			if err != nil {
				t.Fatalf("%s entry surfaced as error: %v", old, err)
			}
			if calls.Load() != 1 {
				t.Errorf("compute ran %d times, want 1 (stale entry must recompute)", calls.Load())
			}
			if got.Cycles == stale.Result.Cycles && got.Violations == stale.Result.Violations {
				t.Errorf("stale %s result was served instead of recomputed", old)
			}
			if st := s1.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Errorf("stats = %v, want the %s entry counted corrupt+miss", st, old)
			}

			// The entry was rewritten under the current schema: a fresh
			// store serves it from disk without recomputing.
			s2, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := s2.GetOrCompute(cfg, fakeCompute(&calls))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, warm)
			if calls.Load() != 1 {
				t.Errorf("compute ran %d times after repair, want 1", calls.Load())
			}
			if st := s2.Stats(); st.DiskHits != 1 {
				t.Errorf("repaired entry not served from disk: %v", st)
			}
		})
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	s, _ := Open("", 0) // memory-only
	var calls atomic.Int64
	release := make(chan struct{})
	slow := func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		<-release
		return fakeCompute(nil)(cfg)
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([]sim.Result, n)
	lookup := func(i int) {
		defer wg.Done()
		r, _, err := s.GetOrCompute(testCfg(512), slow)
		if err != nil {
			t.Error(err)
			return
		}
		results[i] = r
	}
	// First caller registers the in-flight computation and blocks in it;
	// everyone arriving after it must coalesce (or memory-hit), not
	// recompute.
	wg.Add(1)
	go lookup(0)
	for calls.Load() == 0 {
	}
	for i := 1; i < n; i++ {
		wg.Add(1)
		go lookup(i)
	}
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("compute ran %d times under %d concurrent identical requests", calls.Load(), n)
	}
	for i := 1; i < n; i++ {
		sameResult(t, results[0], results[i])
	}
	if st := s.Stats(); st.Deduped+st.MemHits != n-1 {
		t.Errorf("stats = %v, want %d coalesced-or-memory hits", st, n-1)
	}
}

// TestCoalescedWaiterSurvivesLeaderCancellation: a waiter coalesced
// onto a computation that dies with its leader's *cancellation* must
// not inherit the error — it retries with its own compute and succeeds.
// This is the isolation the campaign service's cross-job dedup relies
// on: cancelling one job cannot fail another. A genuine compute failure
// is different: it describes the cell, so every waiter inherits it and
// nobody re-executes a deterministically failing computation.
func TestCoalescedWaiterSurvivesLeaderCancellation(t *testing.T) {
	for name, tc := range map[string]struct {
		leaderErr   error
		wantInherit bool
	}{
		"cancellation-retries":   {leaderErr: fmt.Errorf("job gone (%w)", context.Canceled), wantInherit: false},
		"genuine-error-inherits": {leaderErr: errors.New("simulation blew up"), wantInherit: true},
	} {
		t.Run(name, func(t *testing.T) {
			s, _ := Open("", 0)
			var leaderCalls, waiterCalls atomic.Int64
			waiterArrived := make(chan struct{})
			failingLeader := func(cfg sim.Config) (sim.Result, error) {
				leaderCalls.Add(1)
				<-waiterArrived // fail only once the waiter has coalesced
				return sim.Result{}, tc.leaderErr
			}

			leaderDone := make(chan error, 1)
			go func() {
				_, _, err := s.GetOrCompute(testCfg(64), failingLeader)
				leaderDone <- err
			}()
			for leaderCalls.Load() == 0 {
			}

			waiterDone := make(chan error, 1)
			go func() {
				_, _, err := s.GetOrCompute(testCfg(64), func(cfg sim.Config) (sim.Result, error) {
					waiterCalls.Add(1)
					return fakeCompute(nil)(cfg)
				})
				waiterDone <- err
			}()
			// The waiter is either parked on the leader's flight or will
			// retry; give it a moment to coalesce before the leader fails.
			time.Sleep(10 * time.Millisecond)
			close(waiterArrived)

			if err := <-leaderDone; !errors.Is(err, tc.leaderErr) {
				t.Errorf("leader's own error = %v, want %v", err, tc.leaderErr)
			}
			waiterErr := <-waiterDone
			if tc.wantInherit {
				if !errors.Is(waiterErr, tc.leaderErr) {
					t.Errorf("waiter error = %v, want the leader's (cell-describing) failure", waiterErr)
				}
				if waiterCalls.Load() != 0 {
					t.Errorf("waiter re-executed a deterministically failing compute %d times", waiterCalls.Load())
				}
			} else {
				if waiterErr != nil {
					t.Errorf("waiter inherited the leader's cancellation: %v", waiterErr)
				}
				if waiterCalls.Load() != 1 {
					t.Errorf("waiter computed %d times, want 1 (its own retry)", waiterCalls.Load())
				}
			}
		})
	}
}

// TestPanickingComputeReleasesKey: a compute that panics propagates the
// panic to its caller, hands a coalesced waiter an error, and leaves
// its key free, so the next lookup computes instead of hanging on a
// flight nobody will settle.
func TestPanickingComputeReleasesKey(t *testing.T) {
	s, _ := Open("", 0)
	cfg := testCfg(96)
	waiterArrived := make(chan struct{})
	var calls atomic.Int64
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		s.GetOrCompute(cfg, func(sim.Config) (sim.Result, error) {
			calls.Add(1)
			<-waiterArrived
			panic("cell exploded")
		})
	}()
	for calls.Load() == 0 {
	}
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(cfg, fakeCompute(&calls))
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter coalesce
	close(waiterArrived)

	timeout := time.After(10 * time.Second)
	select {
	case v := <-leaderDone:
		if v != "cell exploded" {
			t.Fatalf("leader recovered %v, want the compute's panic", v)
		}
	case <-timeout:
		t.Fatal("the panicking leader never returned")
	}
	select {
	case err := <-waiterDone:
		// A waiter that arrived after the release computes for itself.
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter error = %v, want nil or the leader's panic", err)
		}
	case <-timeout:
		t.Fatal("a coalesced waiter hangs on the panicked computation")
	}
	again := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(cfg, fakeCompute(nil))
		again <- err
	}()
	select {
	case err := <-again:
		if err != nil {
			t.Fatalf("lookup after the panic: %v", err)
		}
	case <-timeout:
		t.Fatal("a lookup after the panic hangs on its key")
	}
}

func TestComputeErrorsPropagateAndAreNotCached(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	var calls atomic.Int64
	boom := func(sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, os.ErrPermission
	}
	if _, key, err := s.GetOrCompute(testCfg(64), boom); err == nil {
		t.Fatal("expected error")
	} else if key != Key(testCfg(64)) {
		t.Errorf("failed compute returned key %q, want the cell's key", key)
	}
	// The failure must not poison the key: a later good compute succeeds.
	if _, _, err := s.GetOrCompute(testCfg(64), fakeCompute(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
	if entries, _ := filepath.Glob(filepath.Join(s.Dir(), "*", "*.json")); len(entries) != 1 {
		t.Errorf("disk holds %d entries, want 1 (errors never persisted)", len(entries))
	}
}

func TestLRUEvictionFallsBackToDiskOrRecompute(t *testing.T) {
	s, _ := Open("", 2) // memory-only, two slots
	var calls atomic.Int64
	for _, nrh := range []float64{64, 128, 256} {
		if _, _, err := s.GetOrCompute(testCfg(nrh), fakeCompute(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	// 64 was evicted by 256; with no disk layer it recomputes.
	if _, _, err := s.GetOrCompute(testCfg(64), fakeCompute(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("calls = %d, want 4 (three cold + one post-eviction)", calls.Load())
	}
	// 256 is still resident.
	if _, _, err := s.GetOrCompute(testCfg(256), fakeCompute(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Error("resident entry recomputed")
	}
}

// TestConcurrentOverlappingConfigs is the dedup guarantee under real
// concurrency: many goroutines submit overlapping config sets (the
// cross-job shape of two clients sweeping intersecting specs), and
// every distinct key must compute exactly once — the rest must be
// served by the singleflight or a cache layer. Run under -race in CI.
func TestConcurrentOverlappingConfigs(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)

	nrhs := []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	perKey := make(map[string]*atomic.Int64, len(nrhs))
	for _, nrh := range nrhs {
		perKey[Key(testCfg(nrh))] = new(atomic.Int64)
	}
	compute := func(cfg sim.Config) (sim.Result, error) {
		perKey[Key(cfg)].Add(1)
		return fakeCompute(nil)(cfg)
	}

	// 16 goroutines, each sweeping an 8-key window into the shared key
	// space so every pair of goroutines overlaps on most keys.
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(nrhs); i++ {
				nrh := nrhs[(g+i)%len(nrhs)]
				res, _, err := s.GetOrCompute(testCfg(nrh), compute)
				if err != nil {
					t.Error(err)
					return
				}
				if want := nrh / 1024; res.IPC[0] != want {
					t.Errorf("key nrh=%v served result for %v", nrh, res.IPC[0]*1024)
				}
			}
		}(g)
	}
	wg.Wait()

	for key, calls := range perKey {
		if calls.Load() != 1 {
			t.Errorf("key %s computed %d times, want exactly 1", key[:8], calls.Load())
		}
	}
	st := s.Stats()
	if want := uint64(goroutines * len(nrhs)); st.Hits()+st.Misses != want {
		t.Errorf("lookups = %d hits + %d misses, want %d total", st.Hits(), st.Misses, want)
	}
	if st.Misses != uint64(len(nrhs)) {
		t.Errorf("misses = %d, want %d (one per distinct key)", st.Misses, len(nrhs))
	}
}

// TestOpenSweepsStaleTempFiles walks persist's write points: each row
// is the residue a crash at one step leaves for a cell's key — the temp
// file created empty, half written, complete and synced but not renamed,
// and (behind the store's back) a renamed entry truncated. A fresh store
// serves no torn entry: the cell misses and recomputes, the truncated
// entry counting as corrupt. Stats counts only the names persist
// publishes, and sweeps a temp file once it is old enough to be provably
// stale; a young one — possibly another live process's in-flight write
// into the shared directory — is kept.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	cfg := testCfg(64)
	key := Key(cfg)
	want, _ := fakeCompute(nil)(cfg)
	sealed, err := Seal(key, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		file  string // the residue's name in the key's shard directory
		bytes []byte
	}{
		{"created", key + ".tmp1", nil},
		{"half-written", key + ".tmp2", sealed[:len(sealed)/2]},
		{"synced", key + ".tmp3", sealed},
		{"renamed-truncated", key + ".json", sealed[:len(sealed)/2]},
	} {
		entry := row.file == key+".json"
		for _, age := range []time.Duration{2 * staleTempAge, time.Minute} {
			t.Run(fmt.Sprintf("%s/age=%v", row.name, age), func(t *testing.T) {
				dir := t.TempDir()
				p := filepath.Join(dir, key[:2], row.file)
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, row.bytes, 0o644); err != nil {
					t.Fatal(err)
				}
				then := time.Now().Add(-age)
				if err := os.Chtimes(p, then, then); err != nil {
					t.Fatal(err)
				}

				s, _ := Open(dir, 0)
				var published, size uint64
				if entry {
					published, size = 1, uint64(len(row.bytes))
				}
				if st := s.Stats(); st.Entries != published || st.DiskBytes != size {
					t.Errorf("gauges over the residue = %d / %d bytes, want %d / %d", st.Entries, st.DiskBytes, published, size)
				}
				_, err := os.Stat(p)
				switch swept := os.IsNotExist(err); {
				case entry && swept:
					t.Error("Stats removed a published entry")
				case !entry && age > staleTempAge && !swept:
					t.Error("a stale temp file survived Stats")
				case !entry && age < staleTempAge && swept:
					t.Error("a young temp file (a possible live writer's) was swept")
				}

				var calls atomic.Int64
				got, _, err := s.GetOrCompute(cfg, fakeCompute(&calls))
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, want, got)
				var corrupt uint64
				if entry {
					corrupt = 1
				}
				if st := s.Stats(); calls.Load() != 1 || st.Misses != 1 || st.Corrupt != corrupt ||
					st.Entries != 1 || st.DiskBytes != uint64(len(sealed)) {
					t.Errorf("after the lookup: %d computes, stats %v; want 1 compute, 1 miss, %d corrupt, 1 entry of %d bytes",
						calls.Load(), st, corrupt, len(sealed))
				}
			})
		}
	}
}

// TestStatsGauges: the entry and byte gauges equal what the directory
// holds whenever Stats is called, entries another Store over the same
// directory wrote included.
func TestStatsGauges(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	if st := s1.Stats(); st.Entries != 0 || st.DiskBytes != 0 {
		t.Errorf("fresh store gauges = %+v", st)
	}
	for _, nrh := range []float64{64, 128} {
		if _, _, err := s1.GetOrCompute(testCfg(nrh), fakeCompute(nil)); err != nil {
			t.Fatal(err)
		}
	}
	st1 := s1.Stats()
	if st1.Entries != 2 || st1.DiskBytes == 0 {
		t.Errorf("gauges after 2 writes = %+v", st1)
	}

	// A fresh store over the same directory counts the same footprint.
	s2, _ := Open(dir, 0)
	st2 := s2.Stats()
	if st2.Entries != st1.Entries || st2.DiskBytes != st1.DiskBytes {
		t.Errorf("second handle's gauges = %+v, first's %+v", st2, st1)
	}

	// What the second store writes, the first counts at its next call.
	if _, _, err := s2.GetOrCompute(testCfg(256), fakeCompute(nil)); err != nil {
		t.Fatal(err)
	}
	entries, bytes := diskFootprint(t, dir)
	if st := s1.Stats(); entries != 3 || st.Entries != entries || st.DiskBytes != bytes {
		t.Errorf("gauges after another handle's write = %d / %d bytes, directory holds %d / %d",
			st.Entries, st.DiskBytes, entries, bytes)
	}

	// Memory-only stores have no disk footprint.
	m, _ := Open("", 0)
	if _, _, err := m.GetOrCompute(testCfg(64), fakeCompute(nil)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Entries != 0 || st.DiskBytes != 0 {
		t.Errorf("memory-only gauges = %+v", st)
	}
}

// TestGetByKey: the observability read returns entries from memory and
// disk without perturbing the hit/miss counters, and reports absence.
func TestGetByKey(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	want, _, err := s1.GetOrCompute(testCfg(64), fakeCompute(nil))
	if err != nil {
		t.Fatal(err)
	}
	key := Key(testCfg(64))

	before := s1.Stats()
	got, ok := s1.Get(key)
	if !ok {
		t.Fatal("Get missed a resident entry")
	}
	sameResult(t, want, got)
	if s1.Stats() != before {
		t.Errorf("Get changed counters: %v -> %v", before, s1.Stats())
	}

	// Fresh store: served from disk.
	s2, _ := Open(dir, 0)
	got2, ok := s2.Get(key)
	if !ok {
		t.Fatal("Get missed a disk entry")
	}
	sameResult(t, want, got2)
	if st := s2.Stats(); st.DiskHits != 0 || st.MemHits != 0 {
		t.Errorf("Get counted as a hit: %v", st)
	}

	if _, ok := s2.Get(Key(testCfg(99))); ok {
		t.Error("Get fabricated a missing entry")
	}
	if _, ok := s2.Get("zz"); ok {
		t.Error("Get accepted a malformed key")
	}
}

// Results handed out must be isolated from the cached copy: mutating a
// returned IPC slice cannot corrupt what the next caller sees.
func TestResultAliasingIsolation(t *testing.T) {
	s, _ := Open("", 0)
	first, _, err := s.GetOrCompute(testCfg(64), fakeCompute(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := first.IPC[0]
	first.IPC[0] = -1
	second, _, err := s.GetOrCompute(testCfg(64), fakeCompute(nil))
	if err != nil {
		t.Fatal(err)
	}
	if second.IPC[0] != want {
		t.Errorf("cached result was mutated through a returned slice: %v", second.IPC[0])
	}
}

// TestCrashTruncatedWriteRecomputes simulates a crash that publishes a
// partial entry: the stored file is truncated at several points mid-way
// (as if the rename landed but the data did not all reach the platter),
// and every prefix must register as corrupt and recompute — never be
// served, never surface as an error. The fsync-before-rename in persist
// makes this window vanishingly small; the read-side verification is
// the backstop this test pins.
func TestCrashTruncatedWriteRecomputes(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	var calls atomic.Int64
	cold, _, err := s.GetOrCompute(testCfg(96), fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	p := s.path(Key(testCfg(96)))
	whole, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(whole) / 4, len(whole) / 2, len(whole) - 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s2, _ := Open(dir, 0)
			before := calls.Load()
			got, _, err := s2.GetOrCompute(testCfg(96), fakeCompute(&calls))
			if err != nil {
				t.Fatalf("truncated entry surfaced as error: %v", err)
			}
			sameResult(t, cold, got)
			if calls.Load() != before+1 {
				t.Errorf("compute ran %d times, want %d (truncated entry must recompute)", calls.Load(), before+1)
			}
			if st := s2.Stats(); st.Corrupt != 1 {
				t.Errorf("stats = %v, want Corrupt=1", st)
			}
		})
	}
}

// TestContentSumCatchesBitFlips pins the integrity sum: an entry whose
// result bytes were mutated — still valid JSON, schema and key intact,
// exactly what a torn sector or bit flip can produce — must fail the
// sum check and recompute, not serve the mutated numbers.
func TestContentSumCatchesBitFlips(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	var calls atomic.Int64
	cold, _, err := s.GetOrCompute(testCfg(97), fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	key := Key(testCfg(97))
	p := s.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the violation count inside the result payload; everything
	// else (schema, key, sum fields) stays byte-identical.
	mutated := []byte(strings.Replace(string(b), `"Violations":7`, `"Violations":8`, 1))
	if string(mutated) == string(b) {
		t.Fatal("test setup: Violations field not found in entry")
	}
	if err := os.WriteFile(p, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir, 0)
	got, _, err := s2.GetOrCompute(testCfg(97), fakeCompute(&calls))
	if err != nil {
		t.Fatalf("bit-flipped entry surfaced as error: %v", err)
	}
	sameResult(t, cold, got)
	if calls.Load() != 2 {
		t.Errorf("compute ran %d times, want 2 (mutated entry must recompute)", calls.Load())
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %v, want the mutated entry counted corrupt", st)
	}
}

// TestPutServesWithoutCompute: results inserted via Put (the fabric
// coordinator's path for worker-computed cells) serve later lookups
// without invoking compute, in-process and across store reopenings.
func TestPutServesWithoutCompute(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	cfg := testCfg(2048)
	key := Key(cfg)
	want, _ := fakeCompute(nil)(cfg)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	got, _, err := s.GetOrCompute(cfg, fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
	if calls.Load() != 0 {
		t.Errorf("compute ran %d times after Put, want 0", calls.Load())
	}

	s2, _ := Open(dir, 0)
	got2, _, err := s2.GetOrCompute(cfg, fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got2)
	if calls.Load() != 0 {
		t.Errorf("compute ran %d times across stores after Put, want 0", calls.Load())
	}

	if err := s.Put("not-a-key", want); err == nil {
		t.Error("Put accepted a malformed key")
	}
	if err := s.Put("../"+key[:61], want); err == nil {
		t.Error("Put accepted a traversal-shaped key")
	}
}

// TestPutOfAHeldKeyDoesNotRewrite: a key names one result, so a second
// Put of a key the store holds — a fabric cell a worker published and
// then delivered in its compute reply — writes nothing, while the first
// Put of a key evicted from the LRU writes as before.
func TestPutOfAHeldKeyDoesNotRewrite(t *testing.T) {
	s, _ := Open(t.TempDir(), 1)
	a, b := Key(testCfg(64)), Key(testCfg(128))
	res, _ := fakeCompute(nil)(testCfg(64))
	for _, key := range []string{a, a, b, b, a} {
		if err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
	}
	// a, b and a again (evicted by b from the one-entry LRU): three writes.
	if st := s.Stats(); st.Writes != 3 || st.Entries != 2 {
		t.Errorf("five Puts of two keys through a one-entry LRU: %d writes, %d entries; want 3 and 2", st.Writes, st.Entries)
	}
}

// mapRemote is an in-memory Remote for tests: a shared map plus
// injectable failures.
type mapRemote struct {
	mu      sync.Mutex
	entries map[string]sim.Result
	getErr  error
	putErr  error
	gets    atomic.Int64
	puts    atomic.Int64
}

func newMapRemote() *mapRemote { return &mapRemote{entries: map[string]sim.Result{}} }

func (r *mapRemote) Get(ctx context.Context, key string) (sim.Result, bool, error) {
	r.gets.Add(1)
	if r.getErr != nil {
		return sim.Result{}, false, r.getErr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.entries[key]
	return res, ok, nil
}

func (r *mapRemote) Put(ctx context.Context, key string, res sim.Result) error {
	r.puts.Add(1)
	if r.putErr != nil {
		return r.putErr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[key] = res
	return nil
}

// TestRemoteLayerSharesResults: a computed result is published to the
// remote, and a second store (fresh process, fresh directory — another
// fleet worker) serves it from the remote without recomputing, then
// persists it locally so the next lookup never leaves the process.
func TestRemoteLayerSharesResults(t *testing.T) {
	remote := newMapRemote()
	cfg := testCfg(384)

	s1, _ := Open(t.TempDir(), 0)
	s1.SetRemote(remote, 0)
	var calls atomic.Int64
	cold, _, err := s1.GetOrCompute(cfg, fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Misses != 1 || st.RemoteMisses != 1 {
		t.Errorf("first store stats = %v, want one miss local and remote", st)
	}
	if remote.puts.Load() != 1 {
		t.Errorf("remote received %d puts, want 1", remote.puts.Load())
	}

	dir2 := t.TempDir()
	s2, _ := Open(dir2, 0)
	s2.SetRemote(remote, 0)
	warm, _, err := s2.GetOrCompute(cfg, fakeCompute(&calls))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, cold, warm)
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times across workers, want 1 (remote must serve)", calls.Load())
	}
	if st := s2.Stats(); st.RemoteHits != 1 || st.Misses != 0 {
		t.Errorf("second store stats = %v, want the cell served from remote", st)
	}
	// The remote hit was persisted locally: a reopen serves from disk.
	s3, _ := Open(dir2, 0)
	if _, _, err := s3.GetOrCompute(cfg, fakeCompute(&calls)); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.DiskHits != 1 {
		t.Errorf("reopened store stats = %v, want the remote hit served from disk", st)
	}
}

// TestRemoteDegradesGracefully: a remote that fails every call (a
// partitioned or misconfigured object store) must never fail a lookup —
// the store computes locally and counts the degradation.
func TestRemoteDegradesGracefully(t *testing.T) {
	remote := newMapRemote()
	remote.getErr = errors.New("faultinject: 503")
	remote.putErr = errors.New("faultinject: connection reset")

	s, _ := Open(t.TempDir(), 0)
	s.SetRemote(remote, 0)
	var calls atomic.Int64
	got, _, err := s.GetOrCompute(testCfg(48), fakeCompute(&calls))
	if err != nil {
		t.Fatalf("remote failure surfaced as error: %v", err)
	}
	want, _ := fakeCompute(nil)(testCfg(48))
	sameResult(t, want, got)
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if st := s.Stats(); st.RemoteErrors != 2 || st.Misses != 1 {
		t.Errorf("stats = %v, want RemoteErrors=2 (failed get + failed put), Misses=1", st)
	}
}

// TestSealOpenEnvelopeRoundTrip pins the wire format both the disk and
// the remote object store speak, and its integrity rejections.
func TestSealOpenEnvelopeRoundTrip(t *testing.T) {
	cfg := testCfg(112)
	key := Key(cfg)
	res, _ := fakeCompute(nil)(cfg)
	b, err := Seal(key, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenEnvelope(key, b)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, got)

	otherKey := Key(testCfg(113))
	if _, err := OpenEnvelope(otherKey, b); err == nil {
		t.Error("envelope accepted under the wrong key")
	}
	if _, err := OpenEnvelope(key, b[:len(b)-2]); err == nil {
		t.Error("truncated envelope accepted")
	}
	flipped := []byte(strings.Replace(string(b), `"Violations":7`, `"Violations":9`, 1))
	if _, err := OpenEnvelope(key, flipped); err == nil {
		t.Error("bit-flipped envelope passed the content sum")
	}
}
