package trace

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "x.csv")
	err := WriteCSV(path,
		Series{Name: "t", Values: []float64{1, 2, 3}},
		Series{Name: "v", Values: []float64{0.5, math.Pi}},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cols, err := ReadCSVFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Name != "t" || cols[1].Name != "v" {
		t.Fatalf("bad columns: %+v", cols)
	}
	if len(cols[0].Values) != 3 || len(cols[1].Values) != 2 {
		t.Fatalf("bad lengths: %d %d", len(cols[0].Values), len(cols[1].Values))
	}
	if math.Abs(cols[1].Values[1]-math.Pi) > 1e-9 {
		t.Errorf("pi roundtrip: %v", cols[1].Values[1])
	}
}

func TestWriteCSVEmptyFails(t *testing.T) {
	if err := WriteCSV(filepath.Join(t.TempDir(), "x.csv")); err == nil {
		t.Error("expected error for no columns")
	}
}

func TestDownsampleMaxPreserving(t *testing.T) {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 1
	}
	ys[777] = 99 // the mountain must survive
	ox, oy := Downsample(xs, ys, 50)
	if len(ox) > 51 {
		t.Fatalf("downsample kept %d points", len(ox))
	}
	var found bool
	for _, v := range oy {
		if v == 99 {
			found = true
		}
	}
	if !found {
		t.Error("max-preserving downsample lost the peak")
	}
	// Short input passes through.
	ox2, _ := Downsample(xs[:10], ys[:10], 50)
	if len(ox2) != 10 {
		t.Error("short input should pass through")
	}
}

func TestChartRendersSeries(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	out := Chart(ChartOptions{Title: "demo", XLabel: "x", YLabel: "y", Width: 40, Height: 10},
		Line{Name: "a", Xs: xs, Ys: []float64{0, 1, 4, 9, 16}},
		Line{Name: "b", Xs: xs, Ys: []float64{16, 9, 4, 1, 0}},
	)
	for _, frag := range []string{"demo", "*", "o", "legend", "16"} {
		if !strings.Contains(out, frag) {
			t.Errorf("chart missing %q:\n%s", frag, out)
		}
	}
}

func TestChartLogYDropsNonPositive(t *testing.T) {
	out := Chart(ChartOptions{LogY: true, YLabel: "v"},
		Line{Name: "a", Xs: []float64{1, 2, 3}, Ys: []float64{0, 10, 100}})
	if !strings.Contains(out, "log10") {
		t.Error("log scale not labelled")
	}
	if Chart(ChartOptions{LogY: true}, Line{Name: "x", Xs: []float64{1}, Ys: []float64{-1}}) != "(no data)\n" {
		t.Error("all-dropped chart should say no data")
	}
}

func TestChartEmpty(t *testing.T) {
	if Chart(ChartOptions{}) != "(no data)\n" {
		t.Error("empty chart should say no data")
	}
}

func TestChartConstantSeries(t *testing.T) {
	out := Chart(ChartOptions{}, Line{Name: "c", Xs: []float64{1, 2}, Ys: []float64{5, 5}})
	if strings.Contains(out, "no data") {
		t.Error("constant series should still render")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{{"x", "1"}, {"longer", "2.5"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[3], "longer") {
		t.Errorf("table layout wrong:\n%s", out)
	}
}
