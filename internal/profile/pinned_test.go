package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// calibrationDigest is the SHA-256 of the %#v of every calibrated Params
// BuildScaled returns over the 15 Table 5 modules × seeds {1, 2, 7} ×
// rows per bank {1024, 2048, 4096} (4096 cells per row), one per line in
// that order. Any reordering of calibration's float operations moves it.
// ROADMAP item 2's results-changing calibration fixes will move it on
// purpose and re-record it here.
const calibrationDigest = "414ec7c5d5ef6507ab6885c627209eb4ed48519429d7355324fd1afd478cd2a3"

func TestCalibrationPinned(t *testing.T) {
	h := sha256.New()
	for _, spec := range Table5() {
		for _, seed := range []uint64{1, 2, 7} {
			for _, rows := range []int{1024, 2048, 4096} {
				m, err := BuildScaled(spec, seed, rows, 4096)
				if err != nil {
					t.Fatalf("%s seed %d rows %d: %v", spec.Label, seed, rows, err)
				}
				fmt.Fprintf(h, "%#v\n", m.Params)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != calibrationDigest {
		t.Fatalf("calibrated Params digest %s, want %s", got, calibrationDigest)
	}
}
