package cache

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"svard/internal/sim"
	"svard/internal/temporal"
)

// FuzzOpenEnvelope: envelope bytes arrive from disk and from the remote
// object store, so OpenEnvelope must reject anything malformed with an
// error — never a panic — and whatever it accepts must re-seal to an
// envelope that opens, under the same key, to the same result.
func FuzzOpenEnvelope(f *testing.F) {
	cfg := testCfg(112)
	key := Key(cfg)
	res, _ := fakeCompute(nil)(cfg)
	sealed, err := Seal(key, res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(key, sealed)
	f.Add(key, sealed[:len(sealed)/2])
	f.Add(Key(testCfg(113)), sealed)
	f.Add("", []byte(`{"schema":"`+SchemaVersion+`"}`))
	f.Add(key, []byte(`{"result":{"IPC":[1e999]}}`))
	f.Add(key, []byte("null"))
	f.Add(key, []byte{})
	f.Fuzz(func(t *testing.T, key string, b []byte) {
		res, err := OpenEnvelope(key, b)
		if err != nil {
			return
		}
		again, err := Seal(key, res)
		if err != nil {
			t.Fatalf("accepted result does not re-seal: %v", err)
		}
		back, err := OpenEnvelope(key, again)
		if err != nil {
			t.Fatalf("re-sealed envelope does not open: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("re-sealed envelope opens to a different result:\ngot  %+v\nwant %+v", back, res)
		}
	})
}

// FuzzResultPlan holds the envelope to encoding/json from both ends.
// Whatever result bytes the decode plan accepts — framed with their own
// sum, so only the decoder decides — json.Unmarshal accepts too and
// decodes to a DeepEqual Result, and Seal writes those very bytes back:
// the plan accepts the encoder's output and nothing else. And for any
// Result (shape seeds randomize; bits becomes the first IPC entry), Seal
// writes the reference's bytes and both openers return the result.
func FuzzResultPlan(f *testing.F) {
	key := Key(testCfg(112))
	res, _ := fakeCompute(nil)(testCfg(112))
	canonical, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical, int64(0), math.Float64bits(0.5))
	f.Add(bytes.Replace(canonical, []byte(`"IPC":[`), []byte(`"IPC":[-0,1e-7,1e+21,5e-324,`), 1), int64(21), math.Float64bits(math.Copysign(0, -1)))
	f.Add(bytes.Replace(canonical, []byte(`"Cycles":`), []byte(`"Cycles": `), 1), int64(-3), math.Float64bits(1e21))
	f.Add([]byte(`{"IPC":null}`), int64(7), math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, r []byte, shape int64, bits uint64) {
		b := frame(key, r)
		if got, err := OpenEnvelope(key, b); err == nil {
			var want sim.Result
			if err := json.Unmarshal(r, &want); err != nil {
				t.Fatalf("the plan accepts %q, json.Unmarshal refuses it: %v", r, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q decodes to\n%+v by the plan,\n%+v by json.Unmarshal", r, got, want)
			}
			if again, err := Seal(key, got); err != nil || !bytes.Equal(again, b) {
				t.Fatalf("the plan accepts %q, which Seal does not write (%v):\n%s", r, err, again)
			}
		}
		var res sim.Result
		randomize(rand.New(rand.NewSource(shape)), reflect.ValueOf(&res).Elem())
		if len(res.IPC) > 0 {
			res.IPC[0] = math.Float64frombits(bits)
		}
		checkSealAgainstReference(t, key, res)
	})
}

// FuzzKeyMatchesReference: whatever the configuration, the compiled plan
// produces the reflective walk's bytes and Key is their well-formed hex
// SHA-256. shape seeds randomize, which decides the structure (nil, empty
// or populated Mix, temporal block or none) and fills every leaf; the
// remaining arguments hand the fuzzer three leaves directly — a string,
// a float's bits, a Mix entry — in the static and the temporal namespace.
func FuzzKeyMatchesReference(f *testing.F) {
	f.Add(int64(0), "", uint64(0), "")
	f.Add(int64(19), "hbm2", math.Float64bits(math.Copysign(0, -1)), "attack:rrs")
	f.Add(int64(-7), "ddr4-3200", uint64(0x7ff0000000000001), "mcf06\x00lbm06")
	f.Fuzz(func(t *testing.T, shape int64, backend string, floatBits uint64, workload string) {
		var cfg sim.Config
		randomize(rand.New(rand.NewSource(shape)), reflect.ValueOf(&cfg).Elem())
		cfg.Backend = backend
		cfg.NRH = math.Float64frombits(floatBits)
		cfg.Mix = append(cfg.Mix, workload)
		checkKeyAgainstReference(t, cfg)
		if cfg.Temporal == nil {
			cfg.Temporal = &temporal.Spec{Sigma: cfg.NRH}
		} else {
			cfg.Temporal = nil
		}
		checkKeyAgainstReference(t, cfg)
	})
}
