// Package trace turns experiment output into artefacts: CSV series files
// under results/ and ASCII charts for the terminal, the two forms in which
// this reproduction publishes the paper's figures.
package trace

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Series is one named column of float64 values.
type Series struct {
	Name   string
	Values []float64
}

// WriteCSV writes aligned columns to path, creating parent directories.
// Shorter columns are padded with empty cells.
func WriteCSV(path string, cols ...Series) error {
	if len(cols) == 0 {
		return fmt.Errorf("trace: no columns")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := make([]string, len(cols))
	rows := 0
	for i, c := range cols {
		header[i] = c.Name
		if len(c.Values) > rows {
			rows = len(c.Values)
		}
	}
	if err := w.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for r := 0; r < rows; r++ {
		for i, c := range cols {
			if r < len(c.Values) {
				rec[i] = strconv.FormatFloat(c.Values[r], 'g', 10, 64)
			} else {
				rec[i] = ""
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// Downsample reduces xs/ys to at most n points by taking the maximum y in
// each bucket (max-preserving, so queue-length mountains survive; means
// would flatten them).
func Downsample(xs, ys []float64, n int) (ox, oy []float64) {
	if len(xs) != len(ys) {
		panic("trace: downsample length mismatch")
	}
	if len(xs) <= n || n < 1 {
		return xs, ys
	}
	bucket := (len(xs) + n - 1) / n
	for i := 0; i < len(xs); i += bucket {
		end := i + bucket
		if end > len(xs) {
			end = len(xs)
		}
		maxJ := i
		for j := i + 1; j < end; j++ {
			if ys[j] > ys[maxJ] {
				maxJ = j
			}
		}
		ox = append(ox, xs[maxJ])
		oy = append(oy, ys[maxJ])
	}
	return ox, oy
}
