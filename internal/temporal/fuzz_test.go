package temporal

import "testing"

// FuzzParseSpec: ParseSpec must reject malformed specs with an error —
// never a panic — and any spec it accepts must validate and round-trip
// through String.
func FuzzParseSpec(f *testing.F) {
	f.Add("epoch=65536,drift=-0.05,sigma=0.1,dip=0.01,dipfactor=0.5,age=64")
	f.Add("epoch=1")
	f.Add("")
	f.Add("epoch=0")
	f.Add("epoch=1,epoch=2")
	f.Add("epoch=1,sigma=NaN")
	f.Add("drift==,")
	f.Add("epoch=18446744073709551615,dip=1")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Validate rejects: %v", s, verr)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-parse from %q: %v", spec, spec.String(), err)
		}
		if back != spec {
			t.Fatalf("round trip changed the spec: %+v -> %q -> %+v", spec, spec.String(), back)
		}
	})
}

// FuzzFactorFloor: for any spec Validate admits and any (seed, bank,
// row, epoch), the row's factor is not below the process's floor —
// TestFactorFloorIsALowerBound's property off its grid.
func FuzzFactorFloor(f *testing.F) {
	f.Add(-0.01, 0.02, 0.0, 0.0, uint64(0), uint64(1), uint32(3), uint32(1999), uint16(5))
	f.Add(-0.05, 0.1, 0.01, 0.5, uint64(64), uint64(1), uint32(0), uint32(0), uint16(40))
	f.Add(8.0, 8.0, 1.0, 1e-6, uint64(10_000), uint64(7), uint32(31), uint32(131071), uint16(256))
	f.Add(-8.0, 0.0, 0.0, 0.0, uint64(1)<<63, uint64(9), uint32(1), uint32(1), uint16(1))
	f.Add(0.7, 0.0816, 0.3, 1e-300, uint64(3), uint64(11), uint32(2), uint32(77), uint16(1023))
	f.Fuzz(func(t *testing.T, drift, sigma, dipP, dipFactor float64, age, seed uint64, bank, row uint32, epoch uint16) {
		spec := Spec{EpochCycles: 1, Drift: drift, Sigma: sigma, DipP: dipP, DipFactor: dipFactor, AgeEpochs: age}
		if spec.Validate() != nil {
			return
		}
		// Factor walks the epochs one by one; 1024 keeps an execution in
		// microseconds.
		checkFloor(t, NewProcess(spec, seed), int(bank), int(row), uint64(epoch%1024))
	})
}
