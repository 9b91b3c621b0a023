// Package report renders experiment data as text tables, one renderer
// per paper table/figure, for the cmd binaries and EXPERIMENTS.md.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"svard/internal/campaign"
	"svard/internal/charz"
	"svard/internal/sim"
)

// Table is a simple fixed-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row of cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. Widths are sized to
// the widest row, not just the headers, so a row with more cells than
// headers still aligns (its extra columns simply have empty headers).
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func hcK(v float64) string {
	return fmt.Sprintf("%.1fK", v/1024)
}

// Table5 renders the measured module inventory.
func Table5(rows []charz.Table5Row) string {
	t := Table{
		Title:   "Table 5: Tested DDR4 DRAM modules (measured on the simulated chips)",
		Headers: []string{"Module", "Mfr", "Chips", "Den.", "Rev", "Org", "MT/s", "Rows/Bank", "HCfirst Min", "Avg", "Max"},
	}
	for _, r := range rows {
		t.Add(r.Label, r.Mfr, fmt.Sprint(r.Chips), fmt.Sprintf("%dGb", r.DensityGb), r.DieRev,
			fmt.Sprintf("x%d", r.Org), fmt.Sprint(r.FreqMTs), fmt.Sprint(r.RowsPerBank),
			hcK(r.MinHC), hcK(r.AvgHC), hcK(r.MaxHC))
	}
	return t.String()
}

// Fig3 renders one module's per-bank BER box statistics.
func Fig3(d charz.Fig3Data) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 3 (%s): BER across rows per bank @128K hammers, CV=%.2f%%", d.Label, d.CV*100),
		Headers: []string{"Bank", "Min", "Q1", "Median", "Q3", "Max", "Mean"},
	}
	for _, b := range d.Banks {
		s := b.Summary
		t.Add(fmt.Sprint(b.Bank),
			fmt.Sprintf("%.3e", s.Min), fmt.Sprintf("%.3e", s.Q1), fmt.Sprintf("%.3e", s.Median),
			fmt.Sprintf("%.3e", s.Q3), fmt.Sprintf("%.3e", s.Max), fmt.Sprintf("%.3e", s.Mean))
	}
	return t.String()
}

// Fig4 renders the normalized BER-by-location series, coarsened to a
// few buckets.
func Fig4(label string, pts []charz.Fig4Point, buckets int) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 4 (%s): BER @128K vs relative row location (norm. to min)", label),
		Headers: []string{"Location", "Norm BER", "Min", "Max"},
	}
	step := len(pts) / buckets
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		t.Add(fmt.Sprintf("%.2f", p.Loc), fmt.Sprintf("%.3f", p.Norm),
			fmt.Sprintf("%.3f", p.NormLo), fmt.Sprintf("%.3f", p.NormHi))
	}
	return t.String()
}

// Fig5 renders the HCfirst histogram.
func Fig5(label string, levels []charz.Fig5Level) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 5 (%s): fraction of rows per HCfirst level", label),
		Headers: []string{"HCfirst", "Fraction", "Min(bank)", "Max(bank)"},
	}
	for _, l := range levels {
		if l.Frac == 0 && l.FracHi == 0 {
			continue
		}
		t.Add(hcK(l.Level), fmt.Sprintf("%.4f", l.Frac),
			fmt.Sprintf("%.4f", l.FracLo), fmt.Sprintf("%.4f", l.FracHi))
	}
	return t.String()
}

// Fig7 renders the RowPress on-time sweep.
func Fig7(label string, boxes []charz.Fig7Box) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 7 (%s): HCfirst vs aggressor on-time (RowPress)", label),
		Headers: []string{"tAggOn", "Min", "Q1", "Median", "Q3", "Max", "CV"},
	}
	for _, b := range boxes {
		s := b.Summary
		t.Add(fmt.Sprintf("%.0fns", b.TAggOnNs), hcK(s.Min), hcK(s.Q1), hcK(s.Median),
			hcK(s.Q3), hcK(s.Max), fmt.Sprintf("%.1f%%", b.CV*100))
	}
	return t.String()
}

// Fig8 renders the silhouette sweep.
func Fig8(label string, d charz.Fig8Data) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 8 (%s): silhouette vs k (truth %d, best %d)", label, d.TruthK, d.BestK),
		Headers: []string{"k", "Silhouette"},
	}
	for _, p := range d.Curve {
		marker := ""
		if p.K == d.BestK {
			marker = "  <= best"
		}
		t.Add(fmt.Sprint(p.K), fmt.Sprintf("%.4f%s", p.Score, marker))
	}
	return t.String()
}

// Fig9 renders the feature-correlation curve.
func Fig9(d charz.Fig9Data) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 9 (%s): fraction of spatial features above F1 threshold (max F1 %.2f)", d.Label, d.MaxF1),
		Headers: []string{"F1 threshold", "Fraction"},
	}
	for i := range d.Thresholds {
		t.Add(fmt.Sprintf("%.1f", d.Thresholds[i]), fmt.Sprintf("%.3f", d.Fraction[i]))
	}
	return t.String()
}

// Table3 renders the strong features of all modules.
func Table3(data []charz.Fig9Data) string {
	t := Table{
		Title:   "Table 3: spatial features with F1 > 0.7",
		Headers: []string{"Module", "Features", "Avg F1"},
	}
	for _, d := range data {
		if len(d.Strong) == 0 {
			continue
		}
		var names []string
		sum := 0.0
		for _, s := range d.Strong {
			names = append(names, s.Feature.String())
			sum += s.F1
		}
		t.Add(d.Label, strings.Join(names, ", "), fmt.Sprintf("%.2f", sum/float64(len(d.Strong))))
	}
	return t.String()
}

// Fig10 renders the aging transitions.
func Fig10(label string, cells []charz.Fig10Cell) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 10 (%s): HCfirst before vs after 68 days of aging", label),
		Headers: []string{"Before", "After", "Fraction"},
	}
	sorted := append([]charz.Fig10Cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Before != sorted[j].Before {
			return sorted[i].Before < sorted[j].Before
		}
		return sorted[i].After < sorted[j].After
	})
	for _, c := range sorted {
		t.Add(hcK(c.Before), hcK(c.After), fmt.Sprintf("%.2f%%", c.Fraction*100))
	}
	return t.String()
}

// Fig12 renders the performance sweep for one defense.
func Fig12(defense string, cells []sim.Fig12Cell) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 12 (%s): normalized weighted/harmonic speedup and max slowdown", defense),
		Headers: []string{"HCfirst", "Config", "WS", "WS min..max", "HS", "MaxSlowdown", "Bitflips"},
	}
	for _, c := range cells {
		if c.Defense != defense {
			continue
		}
		t.Add(fmt.Sprintf("%.0f", c.NRH), c.Config,
			fmt.Sprintf("%.3f", c.WS), fmt.Sprintf("%.3f..%.3f", c.WSMin, c.WSMax),
			fmt.Sprintf("%.3f", c.HS), fmt.Sprintf("%.3f", c.MS), fmt.Sprint(c.Violations))
	}
	return t.String()
}

// Bands renders the population confidence bands for one defense: the
// Fig. 12 grid with per-metric p5/p50/p95 over the sampled modules
// instead of three point estimates.
func Bands(defense string, cells []sim.BandCell) string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 12 population bands (%s): weighted speedup p5/p50/p95 over sampled modules", defense),
		Headers: []string{"HCfirst", "Config", "Modules", "WS p5", "WS p50", "WS p95", "WS mean", "MS p95", "Bitflips"},
	}
	for _, c := range cells {
		if c.Defense != defense {
			continue
		}
		t.Add(fmt.Sprintf("%.0f", c.NRH), c.Config, fmt.Sprint(c.Modules),
			fmt.Sprintf("%.3f", c.WS.P5), fmt.Sprintf("%.3f", c.WS.P50), fmt.Sprintf("%.3f", c.WS.P95),
			fmt.Sprintf("%.3f", c.WS.Mean), fmt.Sprintf("%.3f", c.MS.P95), fmt.Sprint(c.Violations))
	}
	return t.String()
}

// BandsJSON emits the full band cells (all three metrics with complete
// distribution summaries) as indented JSON for downstream plotting.
func BandsJSON(cells []sim.BandCell) ([]byte, error) {
	return json.MarshalIndent(cells, "", "  ")
}

// Erosion renders the margin-erosion sweep: per (defense, config,
// re-calibration interval), the smallest violation-free swept nRH under
// the calibration-time truth vs. the drifted live truth, the resulting
// margin shift, and the bitflips the drift produces at the calibrated
// operating point. "none" in the nRH columns means no swept threshold
// kept the tracker silent.
func Erosion(cells []sim.ErosionCell) string {
	t := Table{
		Title:   "Margin erosion: violation-free nRH under calibration vs drifted truth",
		Headers: []string{"Defense", "Config", "Interval", "Calib nRH", "Live nRH", "Shift", "Bitflips@Calib"},
	}
	nrh := func(v float64) string {
		if v == 0 {
			return "none"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, c := range cells {
		shift := "-"
		if c.Shift != 0 {
			shift = fmt.Sprintf("%.2fx", c.Shift)
		}
		t.Add(c.Defense, c.Config, fmt.Sprintf("%d ep", c.Interval),
			nrh(c.CalibNRH), nrh(c.LiveNRH), shift, fmt.Sprint(c.Violations))
	}
	return t.String()
}

// Obsv15 renders the residual overheads at one threshold.
func Obsv15(cells []sim.Fig12Cell, nrh float64) string {
	t := Table{
		Title:   fmt.Sprintf("Obsv. 15: performance overhead (1-WS) at HCfirst=%.0f", nrh),
		Headers: []string{"Defense", "Config", "Overhead"},
	}
	for _, c := range cells {
		if c.NRH != nrh {
			continue
		}
		t.Add(c.Defense, c.Config, fmt.Sprintf("%.2f%%", (1-c.WS)*100))
	}
	return t.String()
}

// Fig13 renders the adversarial-pattern slowdowns.
func Fig13(cells []sim.Fig13Cell) string {
	t := Table{
		Title:   "Fig. 13: adversarial access patterns, slowdown normalized to No-Svärd",
		Headers: []string{"Defense", "Config", "Slowdown", "Norm. to NoSvard"},
	}
	for _, c := range cells {
		t.Add(c.Defense, c.Config, fmt.Sprintf("%.3f", c.Slowdown), fmt.Sprintf("%.3f", c.RelToNoSvard))
	}
	return t.String()
}

// Outcome prints a completed campaign, whichever route ran it: every
// figure the outcome carries — Fig. 12 points, population bands (one
// table per defense, in the order given; empty means all five), the
// Obsv. 15 overheads at the smallest swept nRH whenever there are
// Fig. 12 points, margin erosion, Fig. 13 — then the exactly-once
// accounting line.
func Outcome(w io.Writer, defenses []string, out *campaign.Outcome) {
	if len(defenses) == 0 {
		defenses = sim.DefenseNames
	}
	for _, d := range defenses {
		if out.Fig12 != nil {
			fmt.Fprintln(w, Fig12(d, out.Fig12))
		}
		if out.Bands != nil {
			fmt.Fprintln(w, Bands(d, out.Bands))
		}
	}
	if len(out.Fig12) > 0 {
		low := out.Fig12[0].NRH
		for _, c := range out.Fig12 {
			low = min(low, c.NRH)
		}
		fmt.Fprintln(w, Obsv15(out.Fig12, low))
	}
	if out.Erosion != nil {
		fmt.Fprintln(w, Erosion(out.Erosion))
	}
	if out.Fig13 != nil {
		fmt.Fprintln(w, Fig13(out.Fig13))
	}
	fmt.Fprintf(w, "campaign: %d cells, %d computed, %d served from cache", out.Total, out.Computed, out.Served)
	if out.Resumed > 0 {
		fmt.Fprintf(w, ", %d resumed from a previous run's journal", out.Resumed)
	}
	fmt.Fprintln(w)
}
