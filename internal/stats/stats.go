// Package stats collects and summarizes simulation measurements: packet
// latencies, throughput, and channel utilization. It also provides the plain
// text table formatting the experiment harness uses to print paper-style
// result tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Latency accumulates a distribution of per-packet latencies (in cycles).
// The zero value is ready to use.
type Latency struct {
	values []int64
	sorted bool
	sum    int64
	max    int64
}

// Add records one latency sample.
func (l *Latency) Add(v int64) {
	if len(l.values) == 0 || v > l.max {
		l.max = v
	}
	l.values = append(l.values, v)
	l.sum += v
	l.sorted = false
}

// Reset empties the distribution, keeping its storage for the next samples.
func (l *Latency) Reset() { *l = Latency{values: l.values[:0]} }

// Count reports the number of samples.
func (l *Latency) Count() int { return len(l.values) }

// Mean reports the average latency, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if len(l.values) == 0 {
		return 0
	}
	return float64(l.sum) / float64(len(l.values))
}

// Max reports the largest sample, or 0 with none.
func (l *Latency) Max() int64 { return l.max }

// Percentile reports the p-th percentile (0 < p <= 100) by nearest-rank.
func (l *Latency) Percentile(p float64) int64 {
	if len(l.values) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.values, func(i, j int) bool { return l.values[i] < l.values[j] })
		l.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(l.values))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.values) {
		rank = len(l.values)
	}
	return l.values[rank-1]
}

// String summarizes the distribution.
func (l *Latency) String() string {
	if len(l.values) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d max=%d", l.Count(), l.Mean(), l.Percentile(50), l.Percentile(95), l.Max())
}

// Throughput converts a delivered-count over an interval into a rate.
func Throughput(delivered int64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(delivered) / float64(cycles)
}

// Table formats rows of experiment results as aligned plain text, the way
// the harness prints each reproduced table/figure.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; values are formatted with %v (floats with %.3g
// via Cell).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = Cell(c)
	}
	t.rows = append(t.rows, row)
}

// Cell formats one table cell.
func Cell(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.3f", x)
	case float32:
		return fmt.Sprintf("%.3f", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
