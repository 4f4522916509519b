package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hap/internal/haperr"
)

// This file is the reading half of the package: hapfit ingests packet
// traces users hand it, so the readers here are tolerant of the dialect
// zoo real trace files arrive in — CRLF line endings, blank lines, ragged
// rows, optional header rows, stray spaces — and return ErrBadParameter
// errors instead of panicking on anything malformed. ReadCSVFrom also
// reads WriteCSV's output back.

// ReadCSVFrom parses CSV from r into column series. Tolerated dialect:
// CRLF or LF endings, blank lines anywhere, rows with differing field
// counts (short rows leave later columns unpadded), leading whitespace,
// lazy quotes, and an optional header row — the first row is a header
// when any of its cells does not parse as a number, otherwise it is data
// and columns are named col0, col1, … Empty cells are skipped. A non-
// numeric cell in a data row is an error wrapping ErrBadParameter.
func ReadCSVFrom(r io.Reader) ([]Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.LazyQuotes = true
	cr.TrimLeadingSpace = true
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, haperr.Badf("trace: malformed csv (%v)", err)
	}
	// Drop rows whose every cell is blank (csv already skips fully empty
	// lines; this also catches ",," and whitespace-only rows).
	rows := recs[:0]
	for _, rec := range recs {
		blank := true
		for _, cell := range rec {
			if strings.TrimSpace(cell) != "" {
				blank = false
				break
			}
		}
		if !blank {
			rows = append(rows, rec)
		}
	}
	if len(rows) == 0 {
		return nil, haperr.Badf("trace: csv holds no data rows")
	}
	width := 0
	for _, rec := range rows {
		if len(rec) > width {
			width = len(rec)
		}
	}
	out := make([]Series, width)
	header := false
	for _, cell := range rows[0] {
		cell = strings.TrimSpace(cell)
		if cell == "" {
			continue
		}
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			header = true
			break
		}
	}
	if header {
		for i := range out {
			if i < len(rows[0]) {
				out[i].Name = strings.TrimSpace(rows[0][i])
			}
			if out[i].Name == "" {
				out[i].Name = fmt.Sprintf("col%d", i)
			}
		}
		rows = rows[1:]
	} else {
		for i := range out {
			out[i].Name = fmt.Sprintf("col%d", i)
		}
	}
	for nr, rec := range rows {
		for i, cell := range rec {
			cell = strings.TrimSpace(cell)
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, haperr.Badf("trace: row %d column %d: %q is not a number", nr+1, i, cell)
			}
			out[i].Values = append(out[i].Values, v)
		}
	}
	return out, nil
}

// ReadTimestampsFrom parses the first column of CSV data from r — the
// arrival-timestamp convention hapgen writes and hapfit reads.
//
// Unlike ReadCSVFrom it streams: lines are scanned in place out of one
// reused read buffer, and only the first cell of each data row is parsed,
// so a multi-million-line trace costs one float64 slice instead of the
// csv package's per-row string tables. The tolerated dialect is the same
// (CRLF, blank lines, ragged and whitespace rows, matched surrounding
// quotes, optional header — the first non-blank row is a header when any
// of its cells does not parse as a number); cells beyond the first are
// not validated, which is the point of reading a single column.
func ReadTimestampsFrom(r io.Reader) ([]float64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var out []float64
	var long []byte // spill buffer for lines longer than the reader's
	sawRow := false
	row := 0
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return nil, haperr.Badf("trace: read failed (%v)", err)
		}
		done := err == io.EOF
		if cell, blank := firstCell(line); !blank {
			row++
			if !sawRow {
				sawRow = true
				if rowIsHeader(line) {
					if done {
						break
					}
					continue
				}
			}
			if len(cell) > 0 {
				v, perr := strconv.ParseFloat(string(cell), 64)
				if perr != nil {
					return nil, haperr.Badf("trace: row %d column 0: %q is not a number", row, cell)
				}
				out = append(out, v)
			}
		}
		if done {
			break
		}
	}
	if len(out) == 0 {
		return nil, haperr.Badf("trace: csv holds no timestamps in its first column")
	}
	return out, nil
}

// firstCell returns the first comma-separated cell of line (trimmed, with
// matched surrounding quotes stripped) and whether the whole row is blank.
func firstCell(line []byte) (cell []byte, blank bool) {
	line = trimEOL(line)
	rest := line
	if i := bytes.IndexByte(line, ','); i >= 0 {
		cell, rest = trimCell(line[:i]), line[i+1:]
	} else {
		cell, rest = trimCell(line), nil
	}
	if len(cell) > 0 {
		return cell, false
	}
	// First cell is empty: the row is blank only if every other cell is.
	for len(rest) > 0 {
		var c []byte
		if i := bytes.IndexByte(rest, ','); i >= 0 {
			c, rest = trimCell(rest[:i]), rest[i+1:]
		} else {
			c, rest = trimCell(rest), nil
		}
		if len(c) > 0 {
			return nil, false
		}
	}
	return nil, true
}

// rowIsHeader reports whether any non-empty cell of the row fails to
// parse as a number — the same first-row header heuristic ReadCSVFrom
// applies.
func rowIsHeader(line []byte) bool {
	rest := trimEOL(line)
	for {
		var c []byte
		if i := bytes.IndexByte(rest, ','); i >= 0 {
			c, rest = trimCell(rest[:i]), rest[i+1:]
		} else {
			c, rest = trimCell(rest), nil
		}
		if len(c) > 0 {
			if _, err := strconv.ParseFloat(string(c), 64); err != nil {
				return true
			}
		}
		if rest == nil {
			return false
		}
	}
}

// trimEOL strips a trailing LF or CRLF.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// trimCell trims surrounding spaces and one layer of matched quotes —
// "0.5" parses like 0.5, but a lone or mismatched quote stays literal
// (so a row like "1,2",3 cannot masquerade as the numeric row 1,2,3).
func trimCell(c []byte) []byte {
	c = bytes.TrimSpace(c)
	if len(c) >= 2 && c[0] == '"' && c[len(c)-1] == '"' {
		c = bytes.TrimSpace(c[1 : len(c)-1])
	}
	return c
}

// ReadTimestamps reads the first column of the CSV file at path.
func ReadTimestamps(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ts, err := ReadTimestampsFrom(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}
