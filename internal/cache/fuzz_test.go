package cache

import (
	"reflect"
	"testing"
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
