package trace

import (
	"bytes"
	"strings"
	"testing"
)

func buildTestSet() Set {
	return Set{
		{Name: "temp", T: []float64{0, 1, 2}, V: []float64{70, 71.5, 72}},
		{Name: "fan", T: []float64{1, 2}, V: []float64{2000, 2100}},
	}
}

// TestCSVRoundTrip pins WriteCSV's exact output: one row per timestamp
// of the union, zero-order hold between a series' samples, and empty
// cells before a series' first sample.
func TestCSVRoundTrip(t *testing.T) {
	st := append(buildTestSet(), Series{Name: "cap", T: []float64{0.5}, V: []float64{1}})
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t,temp,fan,cap\n" +
		"0,70,,\n" +
		"0.5,70,,1\n" +
		"1,71.5,2000,1\n" +
		"2,72,2100,1\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV =\n%s\nwant\n%s", got, want)
	}
}

func TestPlotRendersAllSeries(t *testing.T) {
	st := buildTestSet()
	out := st.Plot(PlotOptions{Height: 8, Title: "test plot"})
	if out == "" {
		t.Fatal("empty plot")
	}
	if !strings.Contains(out, "test plot") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "temp") || !strings.Contains(out, "fan") {
		t.Error("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("missing series marks")
	}
}

func TestPlotEmptySet(t *testing.T) {
	if out := Set(nil).Plot(PlotOptions{}); out != "" {
		t.Errorf("empty set plot = %q", out)
	}
	if out := (Set{NewSeries("empty", 0)}).Plot(PlotOptions{}); out != "" {
		t.Errorf("set of empty series plot = %q", out)
	}
}
