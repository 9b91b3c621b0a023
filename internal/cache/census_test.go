package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// diskFootprint walks dir the way Stats counts it: the *.json files
// in the two-lowercase-hex-digit shard directories.
func diskFootprint(t *testing.T, dir string) (entries, bytes uint64) {
	t.Helper()
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range shards {
		if !d.IsDir() || len(d.Name()) != 2 || !lowerHex(d.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if info, err := f.Info(); err == nil && strings.HasSuffix(f.Name(), ".json") {
				entries++
				bytes += uint64(info.Size())
			}
		}
	}
	return entries, bytes
}

// TestGaugesExactWhileRescansRaceWrites: Stats calls walking the
// directory while writes land in it leave nothing behind them, so the
// gauges the next Stats call reads equal the directory after any mix of
// the two.
func TestGaugesExactWhileRescansRaceWrites(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	// Walks run beside the first three quarters of the writes; the last
	// quarter lands after them.
	const puts, raced = 400, 300
	var written atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for written.Load() < raced {
			s.Stats()
		}
	}()
	// Every write goes to one shard, so a walk spends its visit of that
	// directory racing them.
	res, _ := fakeCompute(nil)(testCfg(64))
	for i := 0; i < puts; i++ {
		if i == raced {
			wg.Wait()
		}
		if err := s.Put(fmt.Sprintf("00%062x", i), res); err != nil {
			t.Fatal(err)
		}
		written.Add(1)
	}

	st := s.Stats()
	entries, bytes := diskFootprint(t, dir)
	if entries != puts || st.Entries != entries || st.DiskBytes != bytes {
		t.Errorf("gauges = %d entries / %d bytes, directory holds %d / %d (%d written)",
			st.Entries, st.DiskBytes, entries, bytes, puts)
	}
}

// TestCensusCountsShardsOnly: Stats counts the key-prefix directories
// alone — a two-character directory that no key can name is not the
// store's — and a shard removed behind the store's back leaves the
// gauges at the next call.
func TestCensusCountsShardsOnly(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	for _, nrh := range []float64{64, 128} {
		if _, _, err := s1.GetOrCompute(testCfg(nrh), fakeCompute(nil)); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(dir, "zz")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "x.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir, 0)
	entries, bytes := diskFootprint(t, dir)
	if st := s2.Stats(); entries != 2 || st.Entries != entries || st.DiskBytes != bytes {
		t.Errorf("gauges = %d / %d bytes, shards hold %d / %d", st.Entries, st.DiskBytes, entries, bytes)
	}

	gone := Key(testCfg(64))[:2]
	if err := os.RemoveAll(filepath.Join(dir, gone)); err != nil {
		t.Fatal(err)
	}
	entries, bytes = diskFootprint(t, dir)
	if st := s2.Stats(); entries != 1 || st.Entries != entries || st.DiskBytes != bytes {
		t.Errorf("gauges after shard %s vanished = %d / %d bytes, shards hold %d / %d",
			gone, st.Entries, st.DiskBytes, entries, bytes)
	}
}

// TestOversizedEntryReadStopsAtTheBound: a file at an entry's path that
// is longer than any envelope is corrupt, and reading it stops after
// MaxEnvelopeBytes instead of loading the whole file.
func TestOversizedEntryReadStopsAtTheBound(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(64)
	key := Key(cfg)
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	const size = 64 << 20 // sparse: no disk blocks behind it
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, _ := Open(dir, 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = s.read(key)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxEnvelopeBytes)) {
		t.Errorf("read of a %d-byte entry = %v, want an error naming the %d-byte bound", size, err, MaxEnvelopeBytes)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*MaxEnvelopeBytes {
		t.Errorf("reading a %d-byte entry allocated %d bytes, want at most %d", size, alloc, 4*MaxEnvelopeBytes)
	}

	got, _, err := s.GetOrCompute(cfg, fakeCompute(nil))
	if err != nil {
		t.Fatalf("oversized entry surfaced as error: %v", err)
	}
	want, _ := fakeCompute(nil)(cfg)
	sameResult(t, want, got)
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %v, want the oversized entry counted corrupt and replaced", st)
	}
}

// TestDiskReadAllocs: a warm disk read allocates the entry's path, the
// path the kernel is handed, and what OpenEnvelope allocates (the result
// and its IPC slice) — the file's bytes stay on the stack.
func TestDiskReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are counted without the race detector")
	}
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	if _, _, err := s.GetOrCompute(testCfg(64), fakeCompute(nil)); err != nil {
		t.Fatal(err)
	}
	key := Key(testCfg(64))
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = s.read(key) }); n > 4 {
		t.Errorf("a disk read allocates %v times, want <= 4", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}
