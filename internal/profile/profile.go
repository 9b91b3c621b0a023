package profile

import (
	"encoding/json"
	"fmt"
	"math"

	"svard/internal/disturb"
	"svard/internal/exec"
)

// VulnProfile is a captured per-row read disturbance vulnerability
// profile: for every characterized (bank, row) it records the largest
// tested hammer level at which the row showed no bitflip — the safe
// floor a defense may assume. This is the data structure Svärd stores
// (§6.1) and the product of the paper's characterization campaign.
type VulnProfile struct {
	Label       string    `json:"label"`
	RowsPerBank int       `json:"rows_per_bank"`
	Banks       []int     `json:"banks"`  // characterized banks
	Levels      []float64 `json:"levels"` // tested hammer levels (ascending)

	// Bins[i][row] is the safe-level index for row `row` of
	// Banks[i]: Levels[idx] is the largest level with no observed flip.
	// BinBelowGrid marks rows that flipped at the smallest tested level.
	Bins [][]uint8 `json:"bins"`
}

// BinBelowGrid marks a row that flipped at the smallest tested level, so
// no tested level is known safe.
const BinBelowGrid = 0xFF

// validateGrid checks that a level grid fits the uint8 bin encoding:
// at least one level, and fewer than 255 of them — bin 0xFF is reserved
// for BinBelowGrid, so a grid with >= 255 entries would silently alias
// real safe-level indices with "no level is safe".
func validateGrid(levels []float64) error {
	if len(levels) == 0 {
		return fmt.Errorf("profile: empty hammer-level grid")
	}
	if len(levels) >= BinBelowGrid {
		return fmt.Errorf("profile: %d hammer levels overflow the uint8 bin encoding (max %d; bin 0x%X is reserved for below-grid rows)",
			len(levels), BinBelowGrid-1, BinBelowGrid)
	}
	return nil
}

// validateBanks rejects a profile with no characterized banks: every
// lookup would have nothing to fall back on (and the representative-bank
// modulo would divide by zero).
func validateBanks(banks []int) error {
	if len(banks) == 0 {
		return fmt.Errorf("profile: no characterized banks")
	}
	return nil
}

// Capture profiles the given banks of a module under model m: for every
// row, the analytic equivalent of sweeping Alg. 1's hammer counts and
// recording the largest level with no bitflip. Censored rows (no flip
// even at the top level) record the top level as safe. The banks run in
// parallel, each from its HCFirstBank table. It panics on an empty bank
// list or a level grid the uint8 bin encoding cannot hold — both are
// programmer errors, never data.
func Capture(m *disturb.Model, label string, banks []int) *VulnProfile {
	rows := m.Geom.RowsPerBank
	p := NewEmpty(label, rows, banks, disturb.HammerLevels())
	reg := m.RegularRows(1)
	if _, err := exec.Map(0, len(banks), func(i int) (struct{}, error) {
		hc := make([]float64, rows)
		m.HCFirstBank(hc, reg, banks[i], 1)
		p.SetHCFirst(i, hc)
		return struct{}{}, nil
	}); err != nil {
		panic(err)
	}
	return p
}

// SetHCFirst records the bins of the characterized bank at bankPos from
// its rows' true HCfirst, hcFirst[row]: each row's safe level, as
// Capture measures it. Calls for distinct banks may run concurrently.
func (p *VulnProfile) SetHCFirst(bankPos int, hcFirst []float64) {
	bins := p.Bins[bankPos]
	for row, hc := range hcFirst {
		bins[row] = safeIdx(p.Levels, hc)
	}
}

func safeIdx(levels []float64, hcFirst float64) uint8 {
	i := disturb.LevelIndex(levels, hcFirst) // first level >= true HCfirst = first flip level
	if i == 0 {
		return BinBelowGrid
	}
	return uint8(i - 1)
}

// NewEmpty builds an empty profile for measurement-driven capture (the
// testbench path); fill it with SetBin. Like Capture it panics on an
// empty bank list or an oversized level grid — the caller supplies both
// as constants of the measurement campaign.
func NewEmpty(label string, rowsPerBank int, banks []int, levels []float64) *VulnProfile {
	if err := validateGrid(levels); err != nil {
		panic(err)
	}
	if err := validateBanks(banks); err != nil {
		panic(err)
	}
	p := &VulnProfile{
		Label:       label,
		RowsPerBank: rowsPerBank,
		Banks:       append([]int(nil), banks...),
		Levels:      append([]float64(nil), levels...),
		Bins:        make([][]uint8, len(banks)),
	}
	// Unmeasured rows default to the most conservative assumption: no
	// tested level is known safe.
	for i := range p.Bins {
		p.Bins[i] = make([]uint8, rowsPerBank)
		for r := range p.Bins[i] {
			p.Bins[i][r] = BinBelowGrid
		}
	}
	return p
}

// SetBin records a measured first-flip level index for a row: the safe
// floor becomes the previous level. firstFlipIdx == len(Levels) means
// censored (no flip at any level).
func (p *VulnProfile) SetBin(bankPos, row, firstFlipIdx int) {
	switch {
	case firstFlipIdx <= 0:
		p.Bins[bankPos][row] = BinBelowGrid
	case firstFlipIdx >= len(p.Levels):
		p.Bins[bankPos][row] = uint8(len(p.Levels) - 1)
	default:
		p.Bins[bankPos][row] = uint8(firstFlipIdx - 1)
	}
}

// bankPos maps an arbitrary bank index onto a characterized bank: the
// bank itself when characterized, otherwise a representative (banks
// within a module exhibit near-identical distributions, Takeaways 1/3).
// A profile with no characterized banks — only constructible by hand,
// since the constructors and Unmarshal reject it — reports -1, and the
// lookups fall back to the most conservative answer.
func (p *VulnProfile) bankPos(bank int) int {
	for i, b := range p.Banks {
		if b == bank {
			return i
		}
	}
	if len(p.Bins) == 0 {
		return -1
	}
	return bank % len(p.Bins)
}

// SafeThreshold returns the largest hammer count known not to flip the
// row: the defense-facing per-row threshold. Rows that flipped at the
// smallest tested level report half that level, as does every row of a
// degenerate profile with no characterized banks (nothing is known safe).
func (p *VulnProfile) SafeThreshold(bank, row int) float64 {
	idx := p.SafeIdx(bank, row)
	if idx == BinBelowGrid {
		if len(p.Levels) == 0 {
			return 0
		}
		return p.Levels[0] / 2
	}
	return p.Levels[idx]
}

// SafeIdx returns the row's safe-level index (BinBelowGrid for rows
// below the grid, and for every row of a profile with no characterized
// banks or rows).
func (p *VulnProfile) SafeIdx(bank, row int) uint8 {
	pos := p.bankPos(bank)
	if pos < 0 || p.RowsPerBank <= 0 {
		return BinBelowGrid
	}
	return p.Bins[pos][row%p.RowsPerBank]
}

// MinSafeThreshold returns the module's worst-case safe threshold — what
// a profile-oblivious defense must assume for every row.
func (p *VulnProfile) MinSafeThreshold() float64 {
	min := math.Inf(1)
	for i := range p.Bins {
		for _, idx := range p.Bins[i] {
			var v float64
			if idx == BinBelowGrid {
				v = p.Levels[0] / 2
			} else {
				v = p.Levels[idx]
			}
			if v < min {
				min = v
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// BinCounts returns how many rows fall in each safe-level index
// (index len(Levels) collects below-grid rows).
func (p *VulnProfile) BinCounts() []int {
	counts := make([]int, len(p.Levels)+1)
	for i := range p.Bins {
		for _, idx := range p.Bins[i] {
			if idx == BinBelowGrid {
				counts[len(p.Levels)]++
			} else {
				counts[idx]++
			}
		}
	}
	return counts
}

// NumBins returns the number of distinct vulnerability bins the profile
// uses; Svärd's metadata sizing (§6.4) requires <= 16 so a 4-bit id
// suffices. The bin id domain is a uint8, so a fixed array replaces the
// map a per-row loop over every bank would otherwise hash into.
func (p *VulnProfile) NumBins() int {
	var seen [256]bool
	n := 0
	for i := range p.Bins {
		for _, idx := range p.Bins[i] {
			if !seen[idx] {
				seen[idx] = true
				n++
			}
		}
	}
	return n
}

// ScaledProfile views a VulnProfile with every threshold multiplied by
// Factor. The paper evaluates future, more vulnerable chips by scaling
// all observed HCfirst values so the profile minimum equals the target
// worst-case HCfirst (§7.1). A view carries its profile's worst-case
// threshold, taken once by Unscaled, so scaling a view and asking it
// for its minimum cost O(1); build views with Unscaled or ScaledTo.
type ScaledProfile struct {
	P      *VulnProfile
	Factor float64
	pMin   float64 // P.MinSafeThreshold(), unscaled
}

// Unscaled returns the profile's view at Factor 1: the one pass over
// every row that finds the worst-case threshold. Views scaled from it
// share that pass.
func (p *VulnProfile) Unscaled() *ScaledProfile {
	return &ScaledProfile{P: p, Factor: 1, pMin: p.MinSafeThreshold()}
}

// ScaledTo returns the profile scaled so its minimum safe threshold
// equals targetMin.
func (p *VulnProfile) ScaledTo(targetMin float64) *ScaledProfile {
	return p.Unscaled().ScaledTo(targetMin)
}

// ScaledTo returns a view of the same profile scaled so its minimum safe
// threshold equals targetMin, whatever s's own Factor.
func (s *ScaledProfile) ScaledTo(targetMin float64) *ScaledProfile {
	if s.pMin <= 0 {
		return &ScaledProfile{P: s.P, Factor: 1, pMin: s.pMin}
	}
	return &ScaledProfile{P: s.P, Factor: targetMin / s.pMin, pMin: s.pMin}
}

// SafeThreshold returns the scaled per-row threshold.
func (s *ScaledProfile) SafeThreshold(bank, row int) float64 {
	return s.P.SafeThreshold(bank, row) * s.Factor
}

// MinSafeThreshold returns the scaled worst-case threshold.
func (s *ScaledProfile) MinSafeThreshold() float64 {
	return s.pMin * s.Factor
}

// MarshalJSON/UnmarshalJSON round-trip the profile; []uint8 bins encode
// compactly as base64.
func (p *VulnProfile) Marshal() ([]byte, error) { return json.Marshal(p) }

// Unmarshal parses a profile produced by Marshal. Unlike the in-process
// constructors it treats the input as untrusted — a corrupt or
// hand-edited profile is rejected with a descriptive error instead of
// panicking rows later inside SafeThreshold: the banks must be
// non-empty, the level grid must fit the uint8 bin encoding, and every
// bin must name a tested level (or BinBelowGrid).
func Unmarshal(data []byte) (*VulnProfile, error) {
	var p VulnProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if err := validateBanks(p.Banks); err != nil {
		return nil, err
	}
	if err := validateGrid(p.Levels); err != nil {
		return nil, err
	}
	if p.RowsPerBank <= 0 {
		return nil, fmt.Errorf("profile: rows_per_bank %d, want >= 1", p.RowsPerBank)
	}
	if len(p.Bins) != len(p.Banks) {
		return nil, fmt.Errorf("profile: %d bin banks for %d banks", len(p.Bins), len(p.Banks))
	}
	for i := range p.Bins {
		if len(p.Bins[i]) != p.RowsPerBank {
			return nil, fmt.Errorf("profile: bank %d has %d rows, want %d", i, len(p.Bins[i]), p.RowsPerBank)
		}
		for r, bin := range p.Bins[i] {
			if bin != BinBelowGrid && int(bin) >= len(p.Levels) {
				return nil, fmt.Errorf("profile: bank %d (index %d) row %d: bin %d out of range for %d levels",
					p.Banks[i], i, r, bin, len(p.Levels))
			}
		}
	}
	return &p, nil
}

// RepresentativeLabels returns the per-manufacturer representative
// modules used for Svärd's performance evaluation (Fig. 12): S0, M0, H1.
func RepresentativeLabels() []string { return []string{"S0", "M0", "H1"} }
