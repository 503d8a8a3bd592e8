package report

import (
	"strings"
	"testing"

	"knlcap/internal/units"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "Table I",
		Headers: []string{"Metric", "SNC4", "A2A"},
	}
	tab.AddRow("Latency", 3.8, 122.0)
	tab.AddRow("Bandwidth", 7.54321, 1234.5)
	out := tab.String()
	if !strings.Contains(out, "Table I") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "3.80") || !strings.Contains(out, "122") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, headers, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Alignment: all data rows at least as wide as the header row.
	if len(lines[3]) < len(strings.TrimRight(lines[1], " ")) {
		t.Error("rows narrower than headers")
	}
}

// TestAddRowNamedFloat pins the formatting of named float types: a
// units.Nanos cell must render through FormatFloat like a float64, not at
// full precision through %v.
func TestAddRowNamedFloat(t *testing.T) {
	tab := &Table{Headers: []string{"Threads", "Measured", "Mem BW", "GB/s"}}
	tab.AddRow(1, units.Nanos(1.2019607315343076e+06), units.Nanos(815.7049), units.GBps(7.54321))
	want := []string{"1", "1201961", "815.7", "7.54"}
	for i, cell := range tab.Rows[0] {
		if cell != want[i] {
			t.Errorf("cell %d = %q, want %q", i, cell, want[i])
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3.14159: "3.14",
		42.42:   "42.4",
		1234.5:  "1234",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCSV(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b,c"}}
	tab.AddRow("x\"y", 1.0)
	var b strings.Builder
	tab.CSV(&b)
	out := b.String()
	if !strings.Contains(out, `"b,c"`) {
		t.Errorf("comma header not quoted: %q", out)
	}
	if !strings.Contains(out, `"x""y"`) {
		t.Errorf("quote not escaped: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Errorf("csv line count wrong: %q", out)
	}
}

func TestPlotRendering(t *testing.T) {
	p := &Plot{
		Title:  "Figure 9",
		XLabel: "threads",
		YLabel: "GB/s",
		Width:  40,
		Height: 8,
		Series: []Series{
			{Name: "MCDRAM", X: []float64{1, 2, 3}, Y: []float64{10, 100, 300}},
			{Name: "DRAM", X: []float64{1, 2, 3}, Y: []float64{10, 60, 70}},
		},
	}
	out := p.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "*=MCDRAM") {
		t.Errorf("plot missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("plot missing markers:\n%s", out)
	}
}

func TestPlotLogYAndEdgeCases(t *testing.T) {
	p := &Plot{LogY: true, Series: []Series{
		{Name: "s", X: []float64{1, 10}, Y: []float64{1, 1000}},
	}}
	out := p.String()
	if !strings.Contains(out, "log10") {
		t.Errorf("log scale not labeled:\n%s", out)
	}
	empty := &Plot{}
	if !strings.Contains(empty.String(), "empty") {
		t.Error("empty plot not handled")
	}
	flat := &Plot{Series: []Series{{Name: "f", X: []float64{1}, Y: []float64{5}}}}
	if flat.String() == "" {
		t.Error("single-point plot not handled")
	}
}

func TestMarkdown(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "b|c"}}
	tab.AddRow("x", 1.5)
	var b strings.Builder
	tab.Markdown(&b)
	out := b.String()
	if !strings.Contains(out, "**T**") || !strings.Contains(out, "| --- | --- |") {
		t.Errorf("markdown malformed:\n%s", out)
	}
	if !strings.Contains(out, `b\|c`) {
		t.Errorf("pipe not escaped:\n%s", out)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 12 {
		t.Fatalf("registry has %d experiments, want every table/figure", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Paper == "" || e.Command == "" || e.Modules == "" {
			t.Errorf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Every paper table/figure is present.
	for _, id := range []string{"table1", "table2-flat", "table2-cache",
		"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if _, ok := FindExperiment(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("found a nonexistent experiment")
	}
	if !strings.Contains(ExperimentsTable().String(), "fig10") {
		t.Error("registry table missing entries")
	}
}
