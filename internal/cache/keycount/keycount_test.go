package keycount

import (
	"testing"

	"svard/internal/cache"
	"svard/internal/sim"
)

// TestDuring: the count is exact, additive, and not zero — which it
// would silently be, everywhere, if cache.Key were renamed or stopped
// allocating its result itself.
func TestDuring(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Mix = []string{"mcf06", "lbm06"}
	var keys []string
	derive := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				keys = append(keys, cache.Key(cfg)) // append allocates too, outside Key
			}
		}
	}
	one := During(derive(1))
	if one < 1 {
		t.Fatalf("one cache.Key call counted as %d allocations", one)
	}
	if got := During(derive(71)); got != 71*one {
		t.Errorf("71 derivations counted as %d allocations, want %d", got, 71*one)
	}
	if got := During(func() { keys = append(keys, make([]string, 100)...) }); got != 0 {
		t.Errorf("no derivation counted as %d allocations", got)
	}
}
