// Package stats provides the small statistical toolkit used by the
// fault-injection campaigns: streaming mean/variance accumulators
// (Welford's algorithm), normal-approximation confidence intervals, and
// plain-text table rendering for the Table 1 reports.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Accumulator computes streaming count, mean, variance and extrema without
// storing samples. The zero value is ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds a sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the sample count.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (0 for n < 2).
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.StdDev() / math.Sqrt(float64(a.n))
}

// Table renders aligned plain-text tables.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with space-aligned columns and a separator under
// the header.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
