// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a named, scale-aware unit: scale 1
// reproduces paper-scale runs (minutes of CPU for the brute-force pieces,
// exactly as the paper warns), smaller scales shrink horizons and
// truncation bounds for benchmarks and CI.
//
// Results come back as paper-vs-measured rows plus rendered ASCII charts;
// when a results directory is set, the underlying series are written as
// CSV files named after the experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hap/internal/trace"
)

// Context carries run-wide knobs into an experiment.
type Context struct {
	// Scale shrinks horizons, truncation bounds and sweep sizes; 1 is
	// paper scale. Values below ~0.05 are clamped per-experiment to keep
	// the statistics meaningful.
	Scale float64
	// Out receives human-readable progress and results (io.Discard for
	// benchmarks).
	Out io.Writer
	// ResultsDir, when non-empty, receives CSV series files.
	ResultsDir string
	// Seed roots every stochastic component.
	Seed int64
	// Ctx, when non-nil, bounds the whole batch: RunAll stops dispatching
	// new experiments once it is done. Nil means context.Background().
	Ctx context.Context
}

func (c *Context) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c *Context) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c *Context) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// horizon scales a paper-scale simulated horizon, flooring at min.
func (c *Context) horizon(full, min float64) float64 {
	h := full * c.scale()
	if h < min {
		h = min
	}
	return h
}

// intScale scales an integer knob, flooring at min.
func (c *Context) intScale(full, min int) int {
	v := int(float64(full) * c.scale())
	if v < min {
		v = min
	}
	return v
}

func (c *Context) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.out(), format, args...)
}

// writeCSV stores a figure's series when a results directory is set.
func (c *Context) writeCSV(name string, cols ...trace.Series) error {
	if c.ResultsDir == "" {
		return nil
	}
	return trace.WriteCSV(c.ResultsDir+"/"+name+".csv", cols...)
}

// Row is one paper-vs-measured comparison line.
type Row struct {
	Name     string
	Paper    string // what the paper reports (verbatim-ish)
	Measured string
	Match    string // "shape", "value", "direction", ... or a short verdict
}

// Result is a completed experiment.
type Result struct {
	ID      string
	Title   string
	Rows    []Row
	Elapsed time.Duration
	// Values carries machine-readable headline numbers keyed by name,
	// consumed by benchmarks and tests.
	Values map[string]float64
}

func (r *Result) addRow(name, paper, measured, match string) {
	r.Rows = append(r.Rows, Row{Name: name, Paper: paper, Measured: measured, Match: match})
}

func (r *Result) setValue(k string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[k] = v
}

// Render prints the paper-vs-measured table.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s — %s (%v)\n", r.ID, r.Title, r.Elapsed.Round(time.Millisecond))
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, row.Paper, row.Measured, row.Match})
	}
	io.WriteString(w, trace.Table([]string{"quantity", "paper", "measured", "verdict"}, rows))
}

// Experiment is one reproducible artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i].ID) < idOrder(out[j].ID) })
	return out
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(strings.TrimPrefix(id, "E"), "%d", &n)
	return n
}

// Get returns the experiment with the given ID (case-insensitive).
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, rendering each, and returns
// the first error (continuing past failures). A cancelled Context.Ctx
// stops the batch before the next experiment starts; the context error is
// returned (unless an earlier failure already claimed the slot).
func RunAll(ctx *Context) ([]*Result, error) {
	var results []*Result
	var firstErr error
	for _, e := range All() {
		if err := ctx.context().Err(); err != nil {
			ctx.printf("\n──── stopping before %s: %v\n", e.ID, err)
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		ctx.printf("\n──── running %s: %s (scale %.3g)\n", e.ID, e.Title, ctx.scale())
		res, err := e.Run(ctx)
		if err != nil {
			ctx.printf("%s FAILED: %v\n", e.ID, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, err)
			}
			continue
		}
		res.Render(ctx.out())
		results = append(results, res)
	}
	return results, firstErr
}

func fnum(v float64) string { return fmt.Sprintf("%.4g", v) }
