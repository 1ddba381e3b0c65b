// Package harness provides the shared machinery of the experiment
// drivers: phase timing, scaled workload sizing, and table/series printers
// that emit the same rows and series the paper's tables and figures
// report, in both human-readable and CSV form.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Scale shrinks paper-sized workloads to laptop-sized ones. A scale of 1.0
// reproduces the paper's counts (e.g. 100M inserts); the default harness
// scale is 0.1 or smaller per experiment.
type Scale float64

// N scales a paper-sized count, keeping at least 1.
func (s Scale) N(paperCount int) int {
	n := int(float64(paperCount) * float64(s))
	if n < 1 {
		n = 1
	}
	return n
}

// Chunks partitions [0, n) into consecutive [lo, hi) spans of at most
// batch elements — the iteration shape of the facade's ApplyBatch
// drivers. A batch of 0 or less yields the whole range at once.
func Chunks(n, batch int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if batch <= 0 {
		batch = n
	}
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// Parallel runs fn(worker) for worker in [0, workers) on concurrent
// goroutines and blocks until all return. workers <= 1 runs fn(0) on the
// calling goroutine — the degenerate case keeps single-threaded drivers
// free of goroutine overhead.
func Parallel(workers int, fn func(worker int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// ParallelChunks splits [0, n) into one contiguous [lo, hi) span per
// worker and runs them concurrently — the fan-out shape of the sharded
// store's multi-writer drivers. The first workers get the one-element
// remainder, so spans differ in size by at most one.
func ParallelChunks(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	span, rem := n/workers, n%workers
	Parallel(workers, func(w int) {
		lo := w*span + min(w, rem)
		hi := lo + span
		if w < rem {
			hi++
		}
		fn(w, lo, hi)
	})
}

// Timer measures named phases.
type Timer struct {
	phases []Phase
	start  time.Time
	name   string
}

// Phase is one named measured interval.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Start begins measuring a named phase, ending any open one.
func (t *Timer) Start(name string) {
	t.End()
	t.name = name
	t.start = time.Now()
}

// End closes the open phase, if any.
func (t *Timer) End() {
	if t.name != "" {
		t.phases = append(t.phases, Phase{Name: t.name, Duration: time.Since(t.start)})
		t.name = ""
	}
}

// Phases returns all completed phases.
func (t *Timer) Phases() []Phase {
	t.End()
	return t.phases
}

// Get returns the duration of the named phase (0 if absent).
func (t *Timer) Get(name string) time.Duration {
	for _, p := range t.Phases() {
		if p.Name == name {
			return p.Duration
		}
	}
	return 0
}

// Series is one line of a figure: a label and (x, y) points.
type Series struct {
	Label  string
	Points []Point
}

// Point is one (x, y) measurement; X may be numeric or categorical.
type Point struct {
	X string
	Y float64
}

// Table collects experiment output as rows of named columns, preserving
// insertion order of both.
type Table struct {
	Title   string
	columns []string
	rows    []map[string]string
}

// NewTable creates a titled output table.
func NewTable(title string) *Table { return &Table{Title: title} }

// AddRow appends a row given alternating column/value pairs.
func (t *Table) AddRow(pairs ...string) {
	row := map[string]string{}
	for i := 0; i+1 < len(pairs); i += 2 {
		col, val := pairs[i], pairs[i+1]
		row[col] = val
		if !contains(t.columns, col) {
			t.columns = append(t.columns, col)
		}
	}
	t.rows = append(t.rows, row)
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Render writes the table in aligned human-readable form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range t.columns {
			if l := len(row[c]); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var head strings.Builder
	for i, c := range t.columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
	for _, row := range t.rows {
		var b strings.Builder
		for i, c := range t.columns {
			fmt.Fprintf(&b, "%-*s  ", widths[i], row[c])
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func lineWidth(widths []int) int {
	n := 0
	for _, w := range widths {
		n += w + 2
	}
	if n >= 2 {
		n -= 2
	}
	return n
}

// RenderCSV writes the table as CSV (no quoting needed for our values).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.columns, ","))
	for _, row := range t.rows {
		vals := make([]string, len(t.columns))
		for i, c := range t.columns {
			vals[i] = row[c]
		}
		fmt.Fprintln(w, strings.Join(vals, ","))
	}
}

// RenderSeries writes one or more series as an aligned x/y table, series
// as columns — the textual equivalent of a figure.
func RenderSeries(w io.Writer, title string, xLabel string, series []Series) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	// Collect the union of x values, preserving first-seen order.
	var xs []string
	seen := map[string]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	tbl := NewTable(title)
	tbl.Title = title
	for _, x := range xs {
		pairs := []string{xLabel, x}
		for _, s := range series {
			val := ""
			for _, p := range s.Points {
				if p.X == x {
					val = fmt.Sprintf("%.3f", p.Y)
					break
				}
			}
			pairs = append(pairs, s.Label, val)
		}
		tbl.AddRow(pairs...)
	}
	// Reuse the row renderer without re-printing the title banner.
	widths := make([]int, len(tbl.columns))
	for i, c := range tbl.columns {
		widths[i] = len(c)
	}
	for _, row := range tbl.rows {
		for i, c := range tbl.columns {
			if l := len(row[c]); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var head strings.Builder
	for i, c := range tbl.columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
	for _, row := range tbl.rows {
		var b strings.Builder
		for i, c := range tbl.columns {
			fmt.Fprintf(&b, "%-*s  ", widths[i], row[c])
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// Ratio formats a/b with a guard against division by zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// SortedKeys returns the sorted keys of a string-keyed map (stable output
// for deterministic experiment logs).
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
