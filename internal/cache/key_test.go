package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"svard/internal/sim"
	"svard/internal/temporal"
)

func TestKeyDeterministic(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Mix = []string{"mcf06", "lbm06"}
	if Key(cfg) != Key(cfg) {
		t.Fatal("same config hashed to different keys")
	}
	other := cfg
	other.Mix = append([]string(nil), cfg.Mix...)
	if Key(cfg) != Key(other) {
		t.Fatal("equal configs with distinct Mix backing arrays hashed differently")
	}
}

// TestKeyCoversEveryField mutates each field of sim.Config (recursing
// into nested structs) and asserts the key changes, so no two configs
// differing in any knob can ever collide — and a future Config field is
// covered the day it is added, with no cache code change.
func TestKeyCoversEveryField(t *testing.T) {
	base := sim.DefaultConfig()
	base.Mix = []string{"mcf06", "lbm06"}
	baseKey := Key(base)

	var mutate func(t *testing.T, path string, v reflect.Value)
	mutate = func(t *testing.T, path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.Type().NumField(); i++ {
				f := v.Type().Field(i)
				if f.IsExported() {
					mutate(t, path+f.Name, v.Field(i))
				}
			}
			return
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		case reflect.Pointer:
			// nil → pointer-to-zero: field presence alone must change the
			// key (nested pointee fields get their own coverage walk in
			// TestKeyCoversTemporalFields).
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("%s: unhandled kind %s — extend this test and cache.writeValue", path, v.Kind())
		}
	}

	walkLeaves(t, reflect.TypeOf(base), "", func(path string) {
		cfg := base // fresh copy per leaf
		v := reflect.ValueOf(&cfg).Elem()
		leaf := fieldByPath(v, path)
		mutate(t, path, leaf)
		if Key(cfg) == baseKey {
			t.Errorf("mutating %s did not change the cache key", path)
		}
	})
}

// walkLeaves visits the dotted path of every exported leaf field.
func walkLeaves(t *testing.T, typ reflect.Type, prefix string, visit func(path string)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		path := f.Name
		if prefix != "" {
			path = prefix + "." + f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			walkLeaves(t, f.Type, path, visit)
		} else {
			visit(path)
		}
	}
}

func fieldByPath(v reflect.Value, path string) reflect.Value {
	for {
		for i := 0; i < len(path); i++ {
			if path[i] == '.' {
				v = v.FieldByName(path[:i])
				path = path[i+1:]
				goto next
			}
		}
		return v.FieldByName(path)
	next:
	}
}

// The two collision pairs the issue calls out explicitly: WindowScale
// and Svard are the knobs most likely to be "forgotten" by a
// hand-written key.
func TestKeyDistinguishesWindowScaleAndSvard(t *testing.T) {
	a := sim.DefaultConfig()
	a.Mix = []string{"mcf06"}

	b := a
	b.WindowScale = a.WindowScale * 2
	if Key(a) == Key(b) {
		t.Error("configs differing only in WindowScale collided")
	}

	c := a
	c.Svard = !a.Svard
	if Key(a) == Key(c) {
		t.Error("configs differing only in Svard collided")
	}
}

// TestKeyMixFraming: the encoding must be self-delimiting, so adjacent
// Mix entries cannot be re-split into a colliding configuration.
func TestKeyMixFraming(t *testing.T) {
	a := sim.DefaultConfig()
	a.Mix = []string{"mcf06", "lbm06"}
	b := sim.DefaultConfig()
	b.Mix = []string{"mcf06lbm06"}
	c := sim.DefaultConfig()
	c.Mix = []string{"mcf06", "lbm06", ""}
	if Key(a) == Key(b) || Key(a) == Key(c) {
		t.Error("Mix framing is not self-delimiting")
	}
}

// TestKeyCoversTemporalFields: with a temporal block attached, every
// field of the Spec must participate in the key.
func TestKeyCoversTemporalFields(t *testing.T) {
	base := sim.DefaultConfig()
	base.Mix = []string{"mcf06"}
	base.Temporal = &temporal.Spec{EpochCycles: 65536}
	baseKey := Key(base)

	specType := reflect.TypeOf(temporal.Spec{})
	for i := 0; i < specType.NumField(); i++ {
		f := specType.Field(i)
		if !f.IsExported() {
			continue
		}
		cfg := base
		spec := *base.Temporal // fresh copy per field
		cfg.Temporal = &spec
		fv := reflect.ValueOf(cfg.Temporal).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.5)
		default:
			t.Fatalf("Temporal.%s: unhandled kind %s — extend this test", f.Name, fv.Kind())
		}
		if Key(cfg) == baseKey {
			t.Errorf("mutating Temporal.%s did not change the cache key", f.Name)
		}
	}
}

// TestKeyStaticUnchangedByTemporalField pins the exact keys two static
// configurations hash to. A nil Temporal stays invisible to the encoding:
// these keys did not move when the field arrived, only at the svard-sim-v5
// to v8 bumps, where they were re-pinned. If either ever changes without a
// SchemaVersion bump, cached entries are being silently invalidated.
func TestKeyStaticUnchangedByTemporalField(t *testing.T) {
	a := sim.DefaultConfig()
	a.Mix = []string{"mcf06", "lbm06"}
	const pinA = "a21e3901ebd4403fdaddc32f8b46e406d63ad83248b729d3373c5878dec674ab"
	if got := Key(a); got != pinA {
		t.Errorf("static key drifted:\n got %s\nwant %s", got, pinA)
	}

	b := sim.DefaultConfig()
	b.Cores = 2
	b.RowsPerBank = 2048
	b.CellsPerRow = 2048
	b.InstrPerCore = 10000
	b.WarmupPerCore = 2000
	b.NRH = 64
	b.Defense = "para"
	b.Svard = true
	b.Mix = []string{"mcf06", "ycsb-a"}
	const pinB = "2424873fc9605b2e47bdbb7dc745a74616923e1d30c72b8ab1fe8055d88f0c1f"
	if got := Key(b); got != pinB {
		t.Errorf("static key drifted:\n got %s\nwant %s", got, pinB)
	}
}

// TestKeyOneSchemaVersion: static and temporal configurations are keyed
// under the one SchemaVersion, and the temporal block still changes the
// key. Pinned by recomputing both keys against the constant directly.
func TestKeyOneSchemaVersion(t *testing.T) {
	if SchemaVersion != "svard-sim-v8" {
		t.Fatalf("SchemaVersion changed to %q: this invalidates every stored result", SchemaVersion)
	}
	cfg := sim.DefaultConfig()
	cfg.Mix = []string{"mcf06"}
	static := Key(cfg)
	cfg.Temporal = &temporal.Spec{EpochCycles: 65536, Drift: -0.01}
	tempo := Key(cfg)
	if static == tempo {
		t.Fatal("temporal block did not change the cache key")
	}

	rekey := func(c sim.Config) string {
		h := sha256.New()
		writeString(h, SchemaVersion)
		writeValue(h, reflect.ValueOf(c))
		return hex.EncodeToString(h.Sum(nil))
	}
	if rekey(cfg) != tempo {
		t.Error("temporal config not keyed under SchemaVersion")
	}
	cfg.Temporal = nil
	if rekey(cfg) != static {
		t.Error("static config not keyed under SchemaVersion")
	}
}

// TestHashFieldOrderIndependence: struct fields are hashed in sorted
// name order, so reordering a struct's declaration does not silently
// invalidate every cached entry.
func TestHashFieldOrderIndependence(t *testing.T) {
	type ab struct {
		A int
		B string
	}
	type ba struct {
		B string
		A int
	}
	h1, h2 := sha256.New(), sha256.New()
	writeValue(h1, reflect.ValueOf(ab{A: 7, B: "x"}))
	writeValue(h2, reflect.ValueOf(ba{A: 7, B: "x"}))
	if string(h1.Sum(nil)) != string(h2.Sum(nil)) {
		t.Error("field order changed the hash")
	}
	// The same through the production encoder, which sorts when a type's
	// plan is compiled rather than on every call.
	if p1, p2 := planBytes(ab{A: 7, B: "x"}), planBytes(ba{A: 7, B: "x"}); !bytes.Equal(p1, p2) {
		t.Errorf("field order changed the plan's encoding:\nab %q\nba %q", p1, p2)
	}
}

// TestPlanRejectsUnhashableKinds: a kind the encoding has no framing for
// stops the plan from being built — for sim.Config that is package
// initialisation, before any key exists — and the panic names the field,
// however deep it sits.
func TestPlanRejectsUnhashableKinds(t *testing.T) {
	type core struct {
		Width int
		X     map[string]int
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{struct{ Core core }{}, "cache: Config.Core.X: cannot hash map"},
		{struct{ Done chan int }{}, "cache: Config.Done: cannot hash chan"},
		{struct{ Hook func() }{}, "cache: Config.Hook: cannot hash func"},
		{struct{ Mix []any }{}, "cache: Config.Mix[]: cannot hash interface"},
		{struct{ Temporal *struct{ Z [2]complex128 } }{}, "cache: Config.Temporal.Z[]: cannot hash complex128"},
		{struct{ Addr uintptr }{}, "cache: Config.Addr: cannot hash uintptr"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("compile(%T) panicked with %v, want %q", tc.v, got, tc.want)
				}
			}()
			compile(reflect.TypeOf(tc.v), "Config")
		}()
	}
	// Unexported fields are not part of the encoding, so neither are
	// their kinds.
	compile(reflect.TypeOf(struct {
		A     int
		cache map[string]int
	}{}), "Config")
}

// TestKeyAllocs: one key per cell per process is on every cached route,
// and before the plan it was three quarters of a warm cell's allocations.
// The returned string is the one allocation Key needs.
func TestKeyAllocs(t *testing.T) {
	static := sim.DefaultConfig()
	static.Mix = []string{"mcf06", "lbm06", "ycsb-a", "tpcc", "mcf06", "lbm06", "ycsb-a", "tpcc"}
	tempo := static
	tempo.Temporal = &temporal.Spec{EpochCycles: 65536, Drift: -0.01}
	for name, cfg := range map[string]sim.Config{"static": static, "temporal": tempo} {
		var key string
		if n := testing.AllocsPerRun(100, func() { key = Key(cfg) }); n > 2 {
			t.Errorf("Key(%s config) allocates %v times per call, want <= 2", name, n)
		}
		if !WellFormedKey(key) {
			t.Errorf("Key(%s config) = %q", name, key)
		}
	}
}
