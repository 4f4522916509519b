package trace

import (
	"fmt"
	"math"
	"strings"
)

// ChartOptions tunes ASCII rendering.
type ChartOptions struct {
	Width  int // plot columns (default 72)
	Height int // plot rows (default 18)
	Title  string
	XLabel string
	YLabel string
	LogY   bool // plot log10(y); non-positive values are dropped
}

// Line is one named (x, y) series; up to four series share a chart with
// distinct markers.
type Line struct {
	Name string
	Xs   []float64
	Ys   []float64
}

var markers = []byte{'*', 'o', '+', 'x'}

// Chart renders one or more series as an ASCII scatter/line chart with
// axis scales — how cmd/experiments shows the paper's figures in the
// terminal (the CSVs carry the precise data).
func Chart(opts ChartOptions, lines ...Line) string {
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 18
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	type pt struct{ x, y float64 }
	pts := make([][]pt, len(lines))
	for li, l := range lines {
		for i := range l.Xs {
			y := l.Ys[i]
			if opts.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			x := l.Xs[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			pts[li] = append(pts[li], pt{x, y})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for li := range pts {
		mk := markers[li%len(markers)]
		for _, p := range pts[li] {
			c := int((p.x - minX) / (maxX - minX) * float64(w-1))
			r := h - 1 - int((p.y-minY)/(maxY-minY)*float64(h-1))
			grid[r][c] = mk
		}
	}
	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	yname := opts.YLabel
	if opts.LogY {
		yname = "log10(" + yname + ")"
	}
	top, bot := maxY, minY
	fmt.Fprintf(&b, "%10.4g ┤%s\n", top, string(grid[0]))
	for r := 1; r < h-1; r++ {
		label := "          "
		if r == h/2 && yname != "" {
			label = fmt.Sprintf("%10.10s", yname)
		}
		fmt.Fprintf(&b, "%s │%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", bot, string(grid[h-1]))
	fmt.Fprintf(&b, "%10s └%s\n", "", strings.Repeat("─", w))
	fmt.Fprintf(&b, "%10s  %-12.6g%s%12.6g\n", "", minX,
		centerPad(opts.XLabel, w-24), maxX)
	if len(lines) > 1 {
		var leg []string
		for i, l := range lines {
			leg = append(leg, fmt.Sprintf("%c %s", markers[i%len(markers)], l.Name))
		}
		fmt.Fprintf(&b, "%10s  legend: %s\n", "", strings.Join(leg, "   "))
	}
	return b.String()
}

func centerPad(s string, width int) string {
	if width < len(s) {
		return s
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", width-len(s)-left)
}

// Table renders rows with a header in aligned columns.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcol := range header {
		widths[i] = len(hcol)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
