package dram

import "testing"

// FuzzVictimSpan holds VictimSpan to the test it replaced in every ±2
// neighbour walk: for every row of a layout and every offset d in ±1, ±2,
// row+d lies in the row's span iff it is inside the bank and SameSubarray
// admits it. Layouts: none, BuildSubarrays(seed, min, max), or starts
// laid by hand from gaps (a gap of 1 is a one-row subarray, 0 an empty
// one; the last start may land on the bank's end or past it).
func FuzzVictimSpan(f *testing.F) {
	const none, built, byHand = 0, 1, 2
	f.Add(uint8(none), uint16(0), uint64(0), uint16(0), uint16(0), []byte(nil)) // a one-row bank
	f.Add(uint8(none), uint16(63), uint64(0), uint16(0), uint16(0), []byte(nil))
	f.Add(uint8(built), uint16(4095), uint64(7), uint16(329), uint16(697), []byte(nil)) // the paper's 330–1027 rows
	f.Add(uint8(built), uint16(299), uint64(3), uint16(0), uint16(0), []byte(nil))      // every subarray one row
	f.Add(uint8(built), uint16(299), uint64(3), uint16(0), uint16(2), []byte(nil))
	f.Add(uint8(byHand), uint16(7), uint64(0), uint16(0), uint16(0), []byte{1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(byHand), uint16(7), uint64(0), uint16(0), uint16(0), []byte{4, 4}) // [4, 8) ends on the last row
	f.Add(uint8(byHand), uint16(7), uint64(0), uint16(0), uint16(0), []byte{7})    // the last row alone
	f.Add(uint8(byHand), uint16(7), uint64(0), uint16(0), uint16(0), []byte{5, 9}) // a start past the bank
	f.Add(uint8(byHand), uint16(7), uint64(0), uint16(0), uint16(0), []byte{2, 0, 3})
	f.Fuzz(func(t *testing.T, mode uint8, rows uint16, seed uint64, minRows, spread uint16, gaps []byte) {
		g := &Geometry{BankGroups: 1, BanksPerGroup: 1, RowsPerBank: 1 + int(rows)%4096, CellsPerRow: 8}
		switch mode % 3 {
		case built:
			lo := 1 + int(minRows)%1100
			g.BuildSubarrays(seed, lo, lo+int(spread)%1100)
		case byHand:
			starts := []int{0}
			for _, gap := range gaps[:min(len(gaps), 64)] {
				starts = append(starts, starts[len(starts)-1]+int(gap))
			}
			g.SetSubarrayStarts(starts)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for row := 0; row < g.RowsPerBank; row++ {
			lo, hi := g.VictimSpan(row)
			if row < lo || row >= hi {
				t.Fatalf("starts %v, %d rows: row %d outside its own span [%d, %d)", g.SubarrayStarts(), g.RowsPerBank, row, lo, hi)
			}
			for _, d := range [...]int{-2, -1, 1, 2} {
				v := row + d
				want := v >= 0 && v < g.RowsPerBank && g.SameSubarray(row, v)
				if got := v >= lo && v < hi; got != want {
					t.Fatalf("starts %v, %d rows: row %d's span [%d, %d) admits %d: %v, want %v",
						g.SubarrayStarts(), g.RowsPerBank, row, lo, hi, v, got, want)
				}
			}
		}
	})
}
