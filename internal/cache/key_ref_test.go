package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"svard/internal/sim"
	"svard/internal/temporal"
)

// The reference encoder: cache.Key's encoding stated as a reflective walk
// that derives everything from the value on every call — field names
// collected and sorted, each resolved by FieldByName, atoms streamed into
// the hash. Slow (it was 132 of a warm cell's 174 allocations when it
// ran in production) and obviously right, so the compiled plan in key.go
// is checked against it byte for byte (TestKeyPlanMatchesReference,
// FuzzKeyMatchesReference). Do not optimise it.

// writeValue encodes v into h with an unambiguous, self-delimiting
// framing: every atom is prefixed with a one-byte kind tag, strings and
// composites carry explicit lengths, and struct fields are walked in
// sorted name order so the encoding is stable under field reordering.
func writeValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		h.Write([]byte{'b'})
		if v.Bool() {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.Write([]byte{'i'})
		writeUint64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.Write([]byte{'u'})
		writeUint64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		// Bit-exact: distinguishes -0/+0 and every NaN payload, which is
		// stricter than == but exactly what "same configuration" means.
		h.Write([]byte{'f'})
		writeUint64(h, math.Float64bits(v.Float()))
	case reflect.String:
		h.Write([]byte{'s'})
		writeString(h, v.String())
	case reflect.Slice, reflect.Array:
		h.Write([]byte{'l'})
		writeUint64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			writeValue(h, v.Index(i))
		}
	case reflect.Pointer:
		// Reached only for non-nil pointers: the struct case below skips
		// nil pointer fields entirely. The tag keeps a *T field from
		// aliasing an inline T field.
		h.Write([]byte{'p'})
		writeValue(h, v.Elem())
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			// A nil pointer field stays out of the encoding altogether —
			// not even its name is written — so adding an optional block
			// to sim.Config leaves every config without it at its exact
			// pre-existing key (the pinned-key test enforces this for the
			// Temporal field).
			if f.Type.Kind() == reflect.Pointer && v.Field(i).IsNil() {
				continue
			}
			names = append(names, f.Name)
		}
		sort.Strings(names)
		h.Write([]byte{'{'})
		writeUint64(h, uint64(len(names)))
		for _, name := range names {
			writeString(h, name)
			writeValue(h, v.FieldByName(name))
		}
	default:
		// sim.Config is a plain-data struct; any future field of an
		// unhashable kind must fail loudly, not silently alias configs.
		panic(fmt.Sprintf("cache: cannot hash %s field in sim.Config", v.Kind()))
	}
}

func writeUint64(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeUint64(h, uint64(len(s)))
	h.Write([]byte(s))
}

// rawBytes is a hash.Hash that keeps what it is given, so that the
// reference and the plan are compared on the bytes they produce and a
// mismatch shows where they part, not just that two digests differ.
type rawBytes struct{ bytes.Buffer }

func (r *rawBytes) Sum(b []byte) []byte { return append(b, r.Bytes()...) }
func (*rawBytes) Size() int             { return 0 }
func (*rawBytes) BlockSize() int        { return 1 }

// referenceBytes is v under the reference walk; planBytes is v under a
// plan compiled for its type.
func referenceBytes(v any) []byte {
	var h rawBytes
	writeValue(&h, reflect.ValueOf(v))
	return h.Bytes()
}

func planBytes(v any) []byte {
	return compile(reflect.TypeOf(v), "T").append(nil, reflect.ValueOf(v))
}

// referencePreimage is what Key hashed before the plan existed.
func referencePreimage(cfg sim.Config) []byte {
	var h rawBytes
	writeString(&h, SchemaVersion)
	writeValue(&h, reflect.ValueOf(cfg))
	return h.Bytes()
}

// checkKeyAgainstReference holds all three production steps to the
// reference: the preimage bytes, the digest, the hex form.
func checkKeyAgainstReference(t *testing.T, cfg sim.Config) {
	t.Helper()
	want := referencePreimage(cfg)
	if got := appendPreimage(nil, &cfg); !bytes.Equal(got, want) {
		t.Fatalf("plan and reference encode %+v differently:\nplan %q\n ref %q", cfg, got, want)
	}
	sum := sha256.Sum256(want)
	key := Key(cfg)
	if key != hex.EncodeToString(sum[:]) || !WellFormedKey(key) {
		t.Fatalf("Key(%+v) = %q, want the hex SHA-256 of the reference bytes %x", cfg, key, sum)
	}
}

// randomize overwrites every exported leaf under v with a value drawn
// from r, biased towards what an encoder gets wrong: nil next to empty
// slices, nil next to set pointers, empty and non-UTF-8 strings, −0,
// infinities and NaNs with payloads.
func randomize(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(r.Uint64()) >> r.Intn(64)) // SetInt truncates to the field's width
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(r.Uint64() >> r.Intn(64))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(randomFloat(r))
	case reflect.String:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		v.SetString(string(b))
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			n := r.Intn(10) - 1
			if n < 0 {
				v.SetZero() // nil, as distinct from the empty slice n == 0 makes
				return
			}
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < v.Len(); i++ {
			randomize(r, v.Index(i))
		}
	case reflect.Pointer:
		if r.Intn(2) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		randomize(r, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				randomize(r, v.Field(i))
			}
		}
	default:
		panic("randomize: unhandled kind " + v.Kind().String())
	}
}

func randomFloat(r *rand.Rand) float64 {
	const expMask = 0x7ff << 52
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(r.Intn(2)*2 - 1)
	case 3: // a NaN, quiet or signalling, either sign, random payload
		return math.Float64frombits(r.Uint64() | expMask | 1)
	case 4:
		return r.NormFloat64() * 1e3
	default:
		return math.Float64frombits(r.Uint64())
	}
}

// TestKeyPlanMatchesReference: over seeded random configurations the
// compiled plan and the reflective walk produce the same bytes, and Key
// is the hex SHA-256 of them.
func TestKeyPlanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var sawTemporal, sawStatic, sawNilMix, sawEmptyMix bool
	for i := 0; i < 2000; i++ {
		var cfg sim.Config
		randomize(r, reflect.ValueOf(&cfg).Elem())
		checkKeyAgainstReference(t, cfg)
		sawTemporal = sawTemporal || cfg.Temporal != nil
		sawStatic = sawStatic || cfg.Temporal == nil
		sawNilMix = sawNilMix || cfg.Mix == nil
		sawEmptyMix = sawEmptyMix || cfg.Mix != nil && len(cfg.Mix) == 0
	}
	if !sawTemporal || !sawStatic || !sawNilMix || !sawEmptyMix {
		t.Errorf("generator missed a shape: temporal %v, static %v, nil Mix %v, empty Mix %v",
			sawTemporal, sawStatic, sawNilMix, sawEmptyMix)
	}

	// Real configurations, one leaf moved at a time, with and without the
	// temporal block — and one whose encoding outgrows Key's stack buffer.
	for _, temporalBlock := range []*temporal.Spec{nil, {EpochCycles: 65536, Drift: -0.01}} {
		base := sim.DefaultConfig()
		base.Mix = []string{"mcf06", "lbm06"}
		base.Temporal = temporalBlock
		checkKeyAgainstReference(t, base)
		walkLeaves(t, reflect.TypeOf(base), "", func(path string) {
			cfg := base
			randomize(r, fieldByPath(reflect.ValueOf(&cfg).Elem(), path))
			checkKeyAgainstReference(t, cfg)
		})
		base.Mix = make([]string, 256)
		checkKeyAgainstReference(t, base)
	}
}

// everyKind has a field of every kind the encoding supports (sim.Config
// itself uses only a handful), plus the shapes around them: an
// unexported field, a nested struct, pointers that may be nil at two
// depths, fields declared out of name order.
type everyKind struct {
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	F32 float32
	F64 float64
	B   bool
	S   string

	Array  [3]uint16
	Floats []float32
	Nested struct {
		Z      string
		A      []string
		hidden int
	}
	Structs []struct{ K, V int16 }
	Ptr     *struct {
		X int8
		Y *float64
	}
	Ptrs   [2]*string // never nil: only a struct field may be
	hidden map[string]int
}

func TestPlanMatchesReferenceEveryKind(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var sawNil, sawNested bool
	for i := 0; i < 2000; i++ {
		var v everyKind
		if i > 0 { // 0: the zero value, every pointer field nil
			randomize(r, reflect.ValueOf(&v).Elem())
		}
		for j := range v.Ptrs {
			if v.Ptrs[j] == nil {
				v.Ptrs[j] = new(string)
			}
		}
		sawNil = sawNil || v.Ptr == nil
		sawNested = sawNested || v.Ptr != nil && v.Ptr.Y != nil
		if got, want := planBytes(v), referenceBytes(v); !bytes.Equal(got, want) {
			t.Fatalf("plan and reference encode %+v differently:\nplan %q\n ref %q", v, got, want)
		}
	}
	if !sawNil || !sawNested {
		t.Errorf("generator missed a shape: nil pointer %v, pointer under pointer %v", sawNil, sawNested)
	}
}
