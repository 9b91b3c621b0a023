package report

import (
	"strings"
	"testing"

	"svard/internal/campaign"
	"svard/internal/charz"
	"svard/internal/sim"
	"svard/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tab := Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tab.Add("xxxxxx", "y")
	out := tab.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "xxxxxx") {
		t.Errorf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, row
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

// TestTableRowsWiderThanHeaders: a row with more cells than headers used
// to misalign silently (the width loop guarded i < len(widths)); widths
// must size to the widest row and every line must align.
func TestTableRowsWiderThanHeaders(t *testing.T) {
	tab := Table{Headers: []string{"h1", "h2"}}
	tab.Add("a", "b", "a-third-cell")
	tab.Add("wider-than-h1", "b", "c", "fourth")
	out := tab.String()

	for _, cell := range []string{"a-third-cell", "fourth", "wider-than-h1"} {
		if !strings.Contains(out, cell) {
			t.Errorf("cell %q missing from output:\n%s", cell, out)
		}
	}
	// Every cell aligns on the same column starts: the second column of
	// each line begins at the same offset (width of the widest first
	// column + separator).
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Column starts must agree across rows: the second column begins
	// after the widest first cell, the third after the widest second.
	col2 := len("wider-than-h1") + 2
	col3 := col2 + len("h2") + 2
	row1, row2 := lines[2], lines[3]
	if got := strings.Index(row1, "b"); got != col2 {
		t.Errorf("row 1 second column at %d, want %d\n%s", got, col2, out)
	}
	if got := strings.Index(row2, "b"); got != col2 {
		t.Errorf("row 2 second column at %d, want %d\n%s", got, col2, out)
	}
	if got := strings.Index(row1, "a-third-cell"); got != col3 {
		t.Errorf("row 1 third column at %d, want %d\n%s", got, col3, out)
	}
	if got := strings.Index(row2, "c"); got != col3 {
		t.Errorf("row 2 third column at %d, want %d\n%s", got, col3, out)
	}
}

func TestRenderersProduceAllRows(t *testing.T) {
	t5 := Table5([]charz.Table5Row{{Label: "H0", Mfr: "SK Hynix", MinHC: 16384, AvgHC: 47309, MaxHC: 98304}})
	if !strings.Contains(t5, "H0") || !strings.Contains(t5, "16.0K") {
		t.Errorf("Table5 output:\n%s", t5)
	}
	f3 := Fig3(charz.Fig3Data{Label: "M1", CV: 0.08, Banks: []charz.Fig3Bank{{Bank: 1, Summary: stats.Summarize([]float64{1e-4, 2e-4})}}})
	if !strings.Contains(f3, "M1") || !strings.Contains(f3, "8.00%") {
		t.Errorf("Fig3 output:\n%s", f3)
	}
	f12 := Fig12("para", []sim.Fig12Cell{
		{Defense: "para", NRH: 64, Config: "NoSvard", WS: 0.6, HS: 0.58, MS: 1.7},
		{Defense: "rrs", NRH: 64, Config: "NoSvard", WS: 0.4},
	})
	if !strings.Contains(f12, "NoSvard") || strings.Contains(f12, "0.400") {
		t.Errorf("Fig12 must filter by defense:\n%s", f12)
	}
	o15 := Obsv15([]sim.Fig12Cell{{Defense: "rrs", NRH: 64, Config: "Svard-S0", WS: 0.9}}, 64)
	if !strings.Contains(o15, "10.00%") {
		t.Errorf("Obsv15 overhead wrong:\n%s", o15)
	}
	f13 := Fig13([]sim.Fig13Cell{{Defense: "rrs", Config: "NoSvard", Slowdown: 2.5, RelToNoSvard: 1}})
	if !strings.Contains(f13, "2.500") {
		t.Errorf("Fig13 output:\n%s", f13)
	}
	ero := Erosion([]sim.ErosionCell{
		{Defense: "para", Config: "NoSvard", Interval: 0, CalibNRH: 64, LiveNRH: 64, Shift: 1},
		{Defense: "para", Config: "NoSvard", Interval: 64, CalibNRH: 64, LiveNRH: 1024, Shift: 16, Violations: 1757},
		{Defense: "rrs", Config: "Svard-S0", Interval: 64, CalibNRH: 64, LiveNRH: 0, Shift: 0, Violations: 9},
	})
	for _, want := range []string{"64 ep", "1.00x", "16.00x", "1757", "none", "-"} {
		if !strings.Contains(ero, want) {
			t.Errorf("Erosion output missing %q:\n%s", want, ero)
		}
	}
}

// TestOutcomeObsv15: the one campaign printer follows the Fig. 12 tables
// with the Obsv. 15 overheads at the smallest swept nRH, whatever order
// the sweep listed its thresholds in, and prints no Obsv. 15 table for
// outcomes that carry no Fig. 12 points.
func TestOutcomeObsv15(t *testing.T) {
	fig12 := []sim.Fig12Cell{
		{Defense: "rrs", NRH: 64, Config: "NoSvard", WS: 0.5},
		{Defense: "rrs", NRH: 64, Config: "Svard-S0", WS: 0.9},
		{Defense: "rrs", NRH: 1024, Config: "NoSvard", WS: 0.97},
	}
	var b strings.Builder
	Outcome(&b, []string{"rrs"}, &campaign.Outcome{Fig12: fig12, Total: 3, Computed: 3})
	got := b.String()
	fig12At, obsvAt := strings.Index(got, "Fig. 12 (rrs)"), strings.Index(got, "Obsv. 15")
	if fig12At < 0 || obsvAt < fig12At {
		t.Fatalf("Obsv. 15 must follow the Fig. 12 tables:\n%s", got)
	}
	if !strings.Contains(got, Obsv15(fig12, 64)) {
		t.Errorf("Obsv. 15 table not printed at the minimum nRH (64):\n%s", got)
	}
	if strings.Contains(got, "3.00%") {
		t.Errorf("Obsv. 15 lists an overhead from nRH=1024:\n%s", got)
	}

	for name, out := range map[string]*campaign.Outcome{
		"bands":   {Bands: []sim.BandCell{{Defense: "rrs", NRH: 64, Config: "NoSvard", Modules: 4}}},
		"erosion": {Erosion: []sim.ErosionCell{{Defense: "rrs", Config: "NoSvard", CalibNRH: 64, LiveNRH: 64, Shift: 1}}},
		"fig13":   {Fig13: []sim.Fig13Cell{{Defense: "rrs", Config: "NoSvard", Slowdown: 2.5, RelToNoSvard: 1}}},
	} {
		b.Reset()
		Outcome(&b, []string{"rrs"}, out)
		if strings.Contains(b.String(), "Obsv. 15") {
			t.Errorf("%s-only outcome prints an Obsv. 15 table:\n%s", name, b.String())
		}
	}
}
