package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean=%v", got)
	}
	if got := Mean([]float64{-1, 1}); got != 0 {
		t.Fatalf("Mean=%v", got)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median=%v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("Median=%v", got)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatal("Median mutated input")
	}
}

func TestTable(t *testing.T) {
	tab := Table{Title: "demo", Columns: []string{"x", "longcolumn"}}
	tab.AddRow("1", "2")
	tab.AddRow("333333", "4")
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longcolumn") {
		t.Fatalf("table output missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Alignment: header and data rows equal width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345:   "12345",
		42.25:   "42.2",
		1.23456: "1.23",
		0.00123: "0.00123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v)=%q want %q", in, got, want)
		}
	}
}
