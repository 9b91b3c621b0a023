package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"svard/internal/memctrl"
	"svard/internal/sim"
)

// frame wraps r in an envelope for key with r's own sum, so a test can
// put any result bytes in front of the decoder. It is written from the
// format's description, not from envelope.go's constants.
func frame(key string, r []byte) []byte {
	return fmt.Appendf(nil, `{"schema":%q,"key":%q,"sum":"%x","result":%s}`, SchemaVersion, key, sha256.Sum256(r), r)
}

// TestSealMatchesReference: over seeded random results — nil and empty
// IPC, −0, subnormals, floats on both sides of the exponent-form
// cutoffs, NaN and infinities (which no JSON encoder can write) — Seal
// writes the reference's bytes or fails where it fails, and what it
// writes opens to the result it sealed, under both openers.
func TestSealMatchesReference(t *testing.T) {
	key := Key(testCfg(64))
	r := rand.New(rand.NewSource(21))
	var sealed, refused, sawNil, sawEmpty int
	for i := 0; i < 5000; i++ {
		var res sim.Result
		randomize(r, reflect.ValueOf(&res).Elem())
		if i%4 == 0 { // also finite results with many IPC entries
			for j := range res.IPC {
				res.IPC[j] = float64(r.Intn(1<<20)) * math.Pow(10, float64(r.Intn(60)-30))
			}
		}
		if !checkSealAgainstReference(t, key, res) {
			refused++
			continue
		}
		sealed++
		if res.IPC == nil {
			sawNil++
		} else if len(res.IPC) == 0 {
			sawEmpty++
		}
	}
	if sealed < 1000 || refused == 0 || sawNil == 0 || sawEmpty == 0 {
		t.Errorf("generator missed a shape: %d sealed (%d nil, %d empty IPC), %d refused", sealed, sawNil, sawEmpty, refused)
	}
}

// checkSealAgainstReference holds Seal to referenceSeal for one result
// and, if it seals, both openers to the result. It reports whether res
// sealed.
func checkSealAgainstReference(t *testing.T, key string, res sim.Result) bool {
	t.Helper()
	want, wantErr := referenceSeal(key, res)
	got, err := Seal(key, res)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Seal(%+v) error %v, reference error %v", res, err, wantErr)
	}
	if err != nil {
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Seal and reference differ for %+v:\n got %s\nwant %s", res, got, want)
	}
	opened, err := OpenEnvelope(key, got)
	if err != nil {
		t.Fatalf("OpenEnvelope refuses what Seal wrote for %+v: %v\n%s", res, err, got)
	}
	ref, err := referenceOpen(key, got)
	if err != nil {
		t.Fatalf("reference refuses what Seal wrote: %v", err)
	}
	if !reflect.DeepEqual(opened, res) || !reflect.DeepEqual(ref, res) {
		t.Fatalf("round trip moved the result:\nsealed %+v\nopened %+v\nreference %+v", res, opened, ref)
	}
	return true
}

// TestOpenEnvelopeRefusesWhatTheEncoderNeverWrites: the decoder accepts
// one spelling of each result. Each variant below keeps a correct sum
// over its own bytes, so only the decoder can refuse it — and most are
// JSON that json.Unmarshal would take.
func TestOpenEnvelopeRefusesWhatTheEncoderNeverWrites(t *testing.T) {
	key := Key(testCfg(64))
	res := sim.Result{IPC: []float64{1.5, 2e-7}, Cycles: 2000, MC: memctrl.Stats{Reads: 7}, Violations: 3, Finished: true}
	canonical, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := OpenEnvelope(key, frame(key, canonical)); err != nil || !reflect.DeepEqual(got, res) {
		t.Fatalf("canonical bytes: %+v, %v", got, err)
	}
	for name, edit := range map[string][2]string{
		"space after colon":   {`"Cycles":2000`, `"Cycles": 2000`},
		"lowercase name":      {`"Cycles"`, `"cycles"`},
		"trailing zero":       {`1.5`, `1.50`},
		"exponent for 1.5":    {`1.5`, `15e-1`},
		"no exponent":         {`2e-7`, `0.0000002`},
		"padded exponent":     {`2e-7`, `2e-07`},
		"capital exponent":    {`2e-7`, `2E-7`},
		"leading zero":        {`"Cycles":2000`, `"Cycles":02000`},
		"float for uint":      {`"Cycles":2000`, `"Cycles":2000.0`},
		"uint overflow":       {`"Cycles":2000`, `"Cycles":18446744073709551616`},
		"negative uint":       {`"Cycles":2000`, `"Cycles":-2000`},
		"bool as number":      {`"Finished":true`, `"Finished":1`},
		"dangling comma":      {`2e-7]`, `2e-7,]`},
		"missing field":       {`"Violations":3,`, ``},
		"extra field":         {`"Finished":true`, `"Finished":true,"Extra":1`},
		"fields reordered":    {`"Violations":3,"Finished":true`, `"Finished":true,"Violations":3`},
		"trailing space":      {`true}`, `true} `},
		"trailing garbage":    {`true}`, `true}}`},
		"unterminated slice":  {`2e-7]`, `2e-7`},
		"null result":         {string(canonical), `null`},
		"plus sign":           {`1.5`, `+1.5`},
		"negative zero shape": {`1.5`, `-0.0`},
	} {
		t.Run(name, func(t *testing.T) {
			r := strings.Replace(string(canonical), edit[0], edit[1], 1)
			if r == string(canonical) {
				t.Fatalf("edit %q -> %q changed nothing in %s", edit[0], edit[1], canonical)
			}
			if got, err := OpenEnvelope(key, frame(key, []byte(r))); err == nil {
				t.Errorf("accepted %s as %+v", r, got)
			}
		})
	}

	// The frame itself is matched byte for byte: an uppercase sum is the
	// same digest, and still not what Seal writes.
	b := frame(key, canonical)
	sumAt := bytes.Index(b, []byte(`"sum":"`)) + len(`"sum":"`)
	upper := append(append(append([]byte(nil), b[:sumAt]...), bytes.ToUpper(b[sumAt:sumAt+64])...), b[sumAt+64:]...)
	if _, err := OpenEnvelope(key, upper); err == nil {
		t.Error("accepted an uppercase content sum")
	}
	if _, err := OpenEnvelope("ZZ"+key[2:], frame("ZZ"+key[2:], canonical)); err == nil {
		t.Error("opened an envelope under a malformed key")
	}
	if _, err := Seal("not-a-key", res); err == nil {
		t.Error("sealed under a malformed key")
	}
}

// TestDecoderRejectsUnsupportedFields: a field the decoder has no rule
// for stops the plan from being built — for sim.Result that is package
// initialisation — and the panic names the field.
func TestDecoderRejectsUnsupportedFields(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{struct{ N int }{}, "cache: Result.N: cannot decode int"},
		{struct{ MC struct{ Reads uint32 } }{}, "cache: Result.MC.Reads: cannot decode uint32"},
		{struct{ Label string }{}, "cache: Result.Label: cannot decode string"},
		{struct{ Per [2]float64 }{}, "cache: Result.Per: cannot decode array"},
		{struct{ Opt *uint64 }{}, "cache: Result.Opt: cannot decode ptr"},
		{struct{ IPC []float32 }{}, "cache: Result.IPC[]: cannot decode float32"},
		{struct{ Per []struct{ A bool } }{}, "cache: Result.Per: cannot decode a slice of struct"},
		{struct {
			Cycles uint64 `json:"cycles"`
		}{}, "cache: Result.Cycles: cannot decode a tagged or embedded field"},
		{struct{ memctrl.Stats }{}, "cache: Result.Stats: cannot decode a tagged or embedded field"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("compileDecoder(%T) panicked with %v, want %q", tc.v, got, tc.want)
				}
			}()
			compileDecoder(reflect.TypeOf(tc.v), "Result")
		}()
	}
	// Unexported fields are not part of the encoding, so neither are their
	// kinds.
	compileDecoder(reflect.TypeOf(struct {
		A    bool
		memo map[string]int
	}{}), "Result")
}

// TestOpenEnvelopeAllocs: a warm cell opens one envelope, and before the
// frame and the decoder that was 18 allocations. Two remain: the result,
// which the decoder reaches through reflect, and its IPC slice.
func TestOpenEnvelopeAllocs(t *testing.T) {
	key := Key(testCfg(64))
	res := sim.Result{IPC: []float64{0.61, 1.25, 0.875, 1e-7, 2, 0.5, 1.0625, 3.3}, Cycles: 1 << 40,
		MC: memctrl.Stats{Reads: 123456, Writes: 7890, Acts: 4242, Refreshes: 99}, Violations: 1, Finished: true}
	sealed, err := Seal(key, res)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if n := testing.AllocsPerRun(100, func() { got, err = OpenEnvelope(key, sealed) }); n > 3 {
		t.Errorf("OpenEnvelope allocates %v times per call, want <= 3", n)
	}
	if err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf("OpenEnvelope = %+v, %v; want %+v", got, err, res)
	}
}
