package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"svard/internal/sim"
)

// The envelope is the on-disk format, shared verbatim with the remote
// object-store wire (client.CacheRemote ships and verifies the same
// bytes). It is one fixed frame around the result:
//
//	{"schema":"<SchemaVersion>","key":"<key>","sum":"<sum>","result":R}
//
// R is json.Marshal(result) and sum is the hex SHA-256 of R's bytes as
// they stand in the frame. The frame is byte for byte what json.Marshal
// writes for a struct of those four fields, so entries written before it
// was stated here read back unchanged (envelope_ref_test.go keeps that
// struct as the reference). The key cannot play the sum's role — it
// hashes the configuration — so without a content sum a torn or
// bit-flipped entry that still parses would read back as valid.
const (
	frameSchema = `{"schema":"` + SchemaVersion + `","key":"`
	frameSum    = `","sum":"`
	frameResult = `","result":`
	frameEnd    = `}`

	hexLen   = 2 * sha256.Size // a key and a sum alike
	keyAt    = len(frameSchema)
	sumAt    = keyAt + hexLen + len(frameSum)
	resultAt = sumAt + hexLen + len(frameResult)
)

// MaxEnvelopeBytes bounds an envelope read from a peer: the fabric's
// object PUT refuses a longer body and client.CacheRemote a longer GET
// reply. A sealed result is a few hundred bytes (IPC grows 20 bytes or
// so per core).
const MaxEnvelopeBytes = 1 << 20

// Seal wraps a result in its wire envelope (the exact bytes persist
// writes and the remote object store serves). Only a well-formed key can
// be opened, so only one can be sealed.
func Seal(key string, res sim.Result) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("cache: entry %s: %w", key, err)
	}
	sum := sha256.Sum256(r)
	b := make([]byte, 0, resultAt+len(r)+len(frameEnd))
	b = append(append(append(b, frameSchema...), key...), frameSum...)
	b = append(hex.AppendEncode(b, sum[:]), frameResult...)
	return append(append(b, r...), frameEnd...), nil
}

// OpenEnvelope integrity-checks one wire envelope against the key it was
// requested under and decodes its result. It is the single verification
// path for disk reads and remote responses alike: the frame must match
// byte for byte (schema, key), the sum must be R's, and R must be
// exactly what the encoder writes for some sim.Result.
func OpenEnvelope(key string, b []byte) (sim.Result, error) {
	if err := checkKey(key); err != nil {
		return sim.Result{}, err
	}
	switch {
	case len(b) < resultAt+len(frameEnd):
		return sim.Result{}, fmt.Errorf("cache: entry %s: %d bytes, too short for an envelope", key, len(b))
	case string(b[:keyAt]) != frameSchema:
		return sim.Result{}, fmt.Errorf("cache: entry %s: not a %s envelope", key, SchemaVersion)
	case string(b[keyAt:keyAt+hexLen]) != key:
		return sim.Result{}, fmt.Errorf("cache: entry %s: sealed under key %q", key, b[keyAt:keyAt+hexLen])
	case string(b[keyAt+hexLen:sumAt]) != frameSum || string(b[sumAt+hexLen:resultAt]) != frameResult ||
		string(b[len(b)-len(frameEnd):]) != frameEnd:
		return sim.Result{}, fmt.Errorf("cache: entry %s: malformed envelope frame", key)
	}
	s := b[sumAt : sumAt+hexLen]
	if !lowerHex(s) {
		return sim.Result{}, fmt.Errorf("cache: entry %s: malformed content sum %q", key, s)
	}
	var sum [sha256.Size]byte
	_, _ = hex.Decode(sum[:], s) // 64 lowercase hex digits: cannot fail
	r := b[resultAt : len(b)-len(frameEnd)]
	if sha256.Sum256(r) != sum {
		return sim.Result{}, fmt.Errorf("cache: entry %s: content sum mismatch", key)
	}
	var res sim.Result
	if at, ok := resultPlan.decode(r, 0, reflect.ValueOf(&res).Elem()); !ok || at != len(r) {
		return sim.Result{}, fmt.Errorf("cache: entry %s: result byte %d is not what the encoder writes", key, at)
	}
	return res, nil
}

// resultPlan decodes the result bytes of an envelope. Like configPlan it
// is compiled at package initialisation — a Result field the decoder has
// no rule for stops every binary that links the cache at start-up — and
// is immutable afterwards.
var resultPlan = compileDecoder(reflect.TypeOf(sim.Result{}), "Result")

// A decoder reads the one encoding json.Marshal gives a value of its
// type: struct fields in declaration order under their Go names, no
// whitespace, floats in the shortest form that round-trips, uint64s
// without leading zeros, a nil slice as null. It refuses every other
// byte sequence, even one json.Unmarshal would accept, so what it
// accepts json.Unmarshal decodes to the same value (FuzzResultPlan).
type decoder struct {
	kind   reflect.Kind // Bool, Uint64, Float64, Slice or Struct
	elem   *decoder     // Slice: the element's decoder (a scalar)
	fields []decoderField
}

type decoderField struct {
	lead  string // what precedes the value: `{"Name":` for the first field, `,"Name":` after
	index int    // reflect.Value.Field index
	dec   *decoder
}

// compileDecoder builds t's decoder. It handles the kinds sim.Result
// uses and panics, naming the field's path, on any other — and on a json
// tag or an embedded field, which change what the encoder writes.
func compileDecoder(t reflect.Type, path string) *decoder {
	switch t.Kind() {
	case reflect.Bool, reflect.Uint64, reflect.Float64:
		return &decoder{kind: t.Kind()}
	case reflect.Slice:
		// Scalar elements contain no ',' or ']', so a slice's length can be
		// counted before it is decoded and its backing array allocated once.
		elem := compileDecoder(t.Elem(), path+"[]")
		if elem.kind == reflect.Slice || elem.kind == reflect.Struct {
			panic(fmt.Sprintf("cache: %s: cannot decode a slice of %s", path, elem.kind))
		}
		return &decoder{kind: reflect.Slice, elem: elem}
	case reflect.Struct:
		d := &decoder{kind: reflect.Struct}
		sep := "{"
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if _, tagged := f.Tag.Lookup("json"); tagged || f.Anonymous {
				panic(fmt.Sprintf("cache: %s.%s: cannot decode a tagged or embedded field", path, f.Name))
			}
			if f.IsExported() {
				d.fields = append(d.fields, decoderField{
					lead:  sep + `"` + f.Name + `":`,
					index: i,
					dec:   compileDecoder(f.Type, path+"."+f.Name),
				})
				sep = ","
			}
		}
		return d
	default:
		panic(fmt.Sprintf("cache: %s: cannot decode %s", path, t.Kind()))
	}
}

// decode reads one value from b[i:] into v, the zero value of the type d
// was compiled from. It returns the index after the value, or ok=false
// and the index at which b stopped matching.
func (d *decoder) decode(b []byte, i int, v reflect.Value) (next int, ok bool) {
	switch d.kind {
	case reflect.Bool:
		if next, ok = expect(b, i, "true"); ok {
			v.SetBool(true)
			return next, true
		}
		return expect(b, i, "false")
	case reflect.Uint64:
		j := i
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		if j > i+1 && b[i] == '0' {
			return i, false
		}
		n, err := strconv.ParseUint(string(b[i:j]), 10, 64)
		if err != nil {
			return i, false
		}
		v.SetUint(n)
		return j, true
	case reflect.Float64:
		j := i
		for j < len(b) && strings.IndexByte("0123456789-+.eE", b[j]) >= 0 {
			j++
		}
		f, err := strconv.ParseFloat(string(b[i:j]), 64)
		var canon [32]byte
		if err != nil || string(appendFloat(canon[:0], f)) != string(b[i:j]) {
			return i, false
		}
		v.SetFloat(f)
		return j, true
	case reflect.Slice:
		if next, ok = expect(b, i, "null"); ok {
			return next, true // v stays nil
		}
		if i, ok = expect(b, i, "["); !ok {
			return i, false
		}
		n := 0
		for j := i; j < len(b) && b[j] != ']'; j++ {
			if n == 0 || b[j] == ',' {
				n++
			}
		}
		if n == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0)) // json.Unmarshal's [] is empty, not nil
		}
		v.Grow(n)
		v.SetLen(n)
		for k := 0; k < n; k++ {
			if k > 0 {
				if i, ok = expect(b, i, ","); !ok {
					return i, false
				}
			}
			if i, ok = d.elem.decode(b, i, v.Index(k)); !ok {
				return i, false
			}
		}
		return expect(b, i, "]")
	default: // reflect.Struct
		if len(d.fields) == 0 {
			return expect(b, i, "{}")
		}
		for k := range d.fields {
			f := &d.fields[k]
			if i, ok = expect(b, i, f.lead); !ok {
				return i, false
			}
			if i, ok = f.dec.decode(b, i, v.Field(f.index)); !ok {
				return i, false
			}
		}
		return expect(b, i, "}")
	}
}

// expect consumes s at b[i], or reports that b stops matching at i.
func expect(b []byte, i int, s string) (int, bool) {
	if len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return i, false
	}
	return i + len(s), true
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// on, with no zero padding in the exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 -> e-9
		b = b[:n-1]
	}
	return b
}

// lowerHex reports whether s is all lowercase hex digits, the only form
// Key and Seal write.
func lowerHex[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
