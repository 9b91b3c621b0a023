package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"

	"svard/internal/sim"
)

// SchemaVersion tags every cache key and on-disk entry. Bump it whenever
// the simulator's semantics change in a way that makes previously stored
// results stale (a new Config field is covered automatically — it changes
// the key — but a behavioural change behind the same Config is not):
// stale entries then simply miss and are recomputed, never misread.
//
// v2: sim.Run ends at the exact cycle the last core finishes (the v1
// loop polled every 1024 cycles, overstating Result.Cycles and the MC
// stats' tail), and truncated runs report measurement-region IPC.
//
// v3: the memory system is geometry-parameterized (Config.Backend
// selects DDR4-3200 or HBM2). The DDR4 default is bit-identical to v2,
// but the stack's structural assumptions changed (per-channel
// controllers, backend-resolved timing), so v2 entries are invalidated
// wholesale rather than trusting the refactor across every stored cell;
// they recompute on next access, never error.
//
// Config.NoSkip participates in the key like every other field, even
// though the two engines are bit-identical by (test-enforced) contract:
// a -noskip run therefore recomputes rather than reading entries a
// normal run wrote. That duplication is deliberate — the reference loop
// exists to check the engine, and a shared entry would hand it the
// engine's cached answer, masking exactly the divergence it is there to
// catch.
const SchemaVersion = "svard-sim-v3"

// TemporalSchemaVersion tags keys of configurations that carry a
// temporal-variation block (Config.Temporal != nil). Static
// configurations keep SchemaVersion — and, because nil pointer fields
// are skipped by the encoding plan below, their keys are byte-identical to
// pre-temporal builds, so no stored static result is invalidated.
// Temporal runs get their own version string so the namespace starts
// empty and can be bumped independently of the static schema.
const TemporalSchemaVersion = "svard-sim-v4"

// Key returns the canonical content address of one simulation: a hex
// SHA-256 over the schema version and a stable field-order encoding of
// cfg. Two Configs differing in any field (including nested Core fields
// and Mix entries) hash to different keys; the same Config always hashes
// to the same key, across processes and runs.
func Key(cfg sim.Config) string {
	// An 8-core config encodes to under 1 KB, so the whole derivation stays
	// on the stack; only the returned string is allocated (TestKeyAllocs).
	var buf [2048]byte
	sum := sha256.Sum256(appendPreimage(buf[:0], &cfg))
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// appendPreimage appends the bytes Key hashes: the schema version, then
// cfg as configPlan encodes it.
func appendPreimage(b []byte, cfg *sim.Config) []byte {
	if cfg.Temporal != nil {
		b = appendString(b, TemporalSchemaVersion)
	} else {
		b = appendString(b, SchemaVersion)
	}
	return configPlan.append(b, reflect.ValueOf(cfg).Elem())
}

// configPlan is built at package initialisation — so a Config field of
// an unhashable kind stops every binary that links the cache at start-up,
// not at its first Key call — and is immutable afterwards: concurrent
// workers share it without a lock.
var configPlan = compile(reflect.TypeOf(sim.Config{}), "Config")

// A plan is everything about a type's encoding that the type alone
// decides, resolved once so that encoding a value touches only values.
// The framing is unambiguous and self-delimiting: every atom is prefixed
// with a one-byte kind tag, strings and composites carry explicit
// lengths, and struct fields appear in sorted name order so the encoding
// is stable under field reordering. (writeValue in key_ref_test.go states
// the same encoding as a per-call reflective walk; the tests hold the
// plan to it byte for byte.)
type plan struct {
	tag    byte        // kind tag, one of "biufslp{"; also selects the encoder
	elem   *plan       // 'l': the element type's plan; 'p': the pointee's
	fields []planField // '{': the exported fields, in sorted name order
}

type planField struct {
	framed  []byte // the name as it appears in the encoding (appendString)
	index   int    // reflect.Value.Field index
	pointer bool   // nil is possible, and means "leave the field out"
	plan    *plan
}

// compile builds t's plan. path names t's position under the root type
// for the panic an unhashable kind raises.
func compile(t reflect.Type, path string) *plan {
	switch t.Kind() {
	case reflect.Bool:
		return &plan{tag: 'b'}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &plan{tag: 'i'}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &plan{tag: 'u'}
	case reflect.Float32, reflect.Float64:
		return &plan{tag: 'f'}
	case reflect.String:
		return &plan{tag: 's'}
	case reflect.Slice, reflect.Array:
		return &plan{tag: 'l', elem: compile(t.Elem(), path+"[]")}
	case reflect.Pointer:
		return &plan{tag: 'p', elem: compile(t.Elem(), path)}
	case reflect.Struct:
		var fields []reflect.StructField
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fields = append(fields, f)
			}
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
		p := &plan{tag: '{'}
		for _, f := range fields {
			p.fields = append(p.fields, planField{
				framed:  appendString(nil, f.Name),
				index:   f.Index[0],
				pointer: f.Type.Kind() == reflect.Pointer,
				plan:    compile(f.Type, path+"."+f.Name),
			})
		}
		return p
	default:
		// sim.Config is a plain-data struct; any future field of an
		// unhashable kind must fail loudly, not silently alias configs.
		panic(fmt.Sprintf("cache: %s: cannot hash %s", path, t.Kind()))
	}
}

// append appends v, a value of the type p was compiled from, to b.
func (p *plan) append(b []byte, v reflect.Value) []byte {
	b = append(b, p.tag)
	switch p.tag {
	case 'b':
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case 'i':
		return appendUint64(b, uint64(v.Int()))
	case 'u':
		return appendUint64(b, v.Uint())
	case 'f':
		// Bit-exact: distinguishes -0/+0 and every NaN payload, which is
		// stricter than == but exactly what "same configuration" means.
		return appendUint64(b, math.Float64bits(v.Float()))
	case 's':
		return appendString(b, v.String())
	case 'l':
		n := v.Len()
		b = appendUint64(b, uint64(n))
		for i := 0; i < n; i++ {
			b = p.elem.append(b, v.Index(i))
		}
		return b
	case 'p':
		// Reached only for non-nil pointers: the struct case below skips
		// nil pointer fields entirely. The tag keeps a *T field from
		// aliasing an inline T field.
		return p.elem.append(b, v.Elem())
	default: // '{'
		count := len(b) // patched below, once the nil pointers are known
		b = appendUint64(b, 0)
		n := uint64(0)
		for i := range p.fields {
			f := &p.fields[i]
			fv := v.Field(f.index)
			// A nil pointer field stays out of the encoding altogether —
			// not even its name is written — so adding an optional block
			// to sim.Config leaves every config without it at its exact
			// pre-existing key (the pinned-key test enforces this for the
			// Temporal field).
			if f.pointer && fv.IsNil() {
				continue
			}
			b = f.plan.append(append(b, f.framed...), fv)
			n++
		}
		binary.LittleEndian.PutUint64(b[count:], n)
		return b
	}
}

func appendUint64(b []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, x)
}

func appendString(b []byte, s string) []byte {
	return append(appendUint64(b, uint64(len(s))), s...)
}
