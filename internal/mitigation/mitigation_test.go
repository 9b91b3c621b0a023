package mitigation

import (
	"testing"
	"testing/quick"
)

func TestCBFNeverUndercounts(t *testing.T) {
	f := NewCBF(256, 4, 1)
	for i := int64(0); i < 100; i++ {
		for j := int64(0); j <= i%5; j++ {
			f.Insert(i)
		}
	}
	for i := int64(0); i < 100; i++ {
		want := uint32(i%5) + 1
		if got := f.Estimate(i); got < want {
			t.Fatalf("key %d estimate %d < true %d", i, got, want)
		}
	}
	if f.Estimate(99999) > 20 {
		// Collisions can over-count but not wildly at this load.
		t.Errorf("absent key estimate = %d", f.Estimate(99999))
	}
	f.Clear()
	if f.Estimate(1) != 0 {
		t.Error("clear did not zero the filter")
	}
}

func TestQuickCBFOverapproximates(t *testing.T) {
	fn := func(keys []int16) bool {
		f := NewCBF(512, 3, 7)
		truth := map[int64]uint32{}
		for _, k := range keys {
			f.Insert(int64(k))
			truth[int64(k)]++
		}
		for k, n := range truth {
			if f.Estimate(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowCounterResets(t *testing.T) {
	w := NewWindowCounter(1000, 1024)
	if w.Inc(5) != 1 || w.Inc(5) != 2 {
		t.Fatal("increment broken")
	}
	w.Tick(999)
	if w.Count(5) != 2 {
		t.Error("tick inside window reset counts")
	}
	w.Tick(1000)
	if w.Count(5) != 0 {
		t.Error("window boundary did not reset")
	}
	// Skipping multiple windows realigns the boundary.
	w.Inc(5)
	w.Tick(5500)
	if w.Count(5) != 0 {
		t.Error("multi-window skip did not reset")
	}
	w.Inc(7)
	w.Tick(5600)
	if w.Count(7) != 1 {
		t.Error("reset boundary misaligned after skip")
	}
}

func TestVictimRefreshesClamped(t *testing.T) {
	si := SystemInfo{Banks: 2, RowsPerBank: 100}
	mid := AppendVictimRefreshes(nil, si, 0, 50)
	if len(mid) != 2 {
		t.Fatalf("interior refreshes = %d, want 2", len(mid))
	}
	edge := AppendVictimRefreshes(nil, si, 0, 0)
	if len(edge) != 1 || edge[0].Row != 1 {
		t.Fatalf("edge refreshes = %+v", edge)
	}
	for _, d := range append(mid, edge...) {
		if d.Kind != RefreshVictim {
			t.Error("wrong directive kind")
		}
	}
}

func TestNopDefense(t *testing.T) {
	var n Nop
	if ok, _ := n.CanActivate(0, 0, 0); !ok {
		t.Error("Nop throttles")
	}
	if n.OnActivate(0, 0, 0) != nil {
		t.Error("Nop acts")
	}
}

func TestKeyUnique(t *testing.T) {
	si := SystemInfo{Banks: 4, RowsPerBank: 1 << 20}
	seen := map[int64]bool{}
	for b := 0; b < 4; b++ {
		for r := 0; r < 100; r++ {
			k := Key(si, b, r)
			if seen[k] {
				t.Fatalf("key collision at bank %d row %d", b, r)
			}
			seen[k] = true
		}
	}
}
