package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyResetKeepsStorage(t *testing.T) {
	var l Latency
	for _, v := range []int64{30, 10, 20} {
		l.Add(v)
	}
	_ = l.Percentile(50) // leaves the samples sorted
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 || l.String() != "n=0" {
		t.Fatalf("after Reset: %s min=%d max=%d", l.String(), l.Min(), l.Max())
	}
	if allocs := testing.AllocsPerRun(10, func() { l.Add(7); l.Add(3); l.Add(9); l.Reset() }); allocs != 0 {
		t.Errorf("refilling a reset distribution: %v allocations, want 0", allocs)
	}
	for _, v := range []int64{7, 3, 9} {
		l.Add(v)
	}
	if l.Min() != 3 || l.Max() != 9 || l.Percentile(50) != 7 || l.Count() != 3 {
		t.Errorf("after refill: %s", l.String())
	}
}

func TestLatencyBasics(t *testing.T) {
	var l Latency
	if l.Count() != 0 || l.Mean() != 0 || l.Percentile(50) != 0 {
		t.Error("zero-value Latency not empty")
	}
	if l.String() != "n=0" {
		t.Errorf("empty String = %q", l.String())
	}
	for _, v := range []int64{10, 20, 30, 40} {
		l.Add(v)
	}
	if l.Count() != 4 || l.Min() != 10 || l.Max() != 40 {
		t.Errorf("count/min/max = %d/%d/%d", l.Count(), l.Min(), l.Max())
	}
	if l.Mean() != 25 {
		t.Errorf("mean = %v", l.Mean())
	}
	if got := l.Percentile(50); got != 20 {
		t.Errorf("p50 = %d", got)
	}
	if got := l.Percentile(100); got != 40 {
		t.Errorf("p100 = %d", got)
	}
	if got := l.Percentile(1); got != 10 {
		t.Errorf("p1 = %d", got)
	}
	// Adding after a percentile query must keep the structure consistent.
	l.Add(5)
	if l.Min() != 5 || l.Percentile(1) != 5 {
		t.Errorf("after re-add: min=%d p1=%d", l.Min(), l.Percentile(1))
	}
	if !strings.Contains(l.String(), "n=5") {
		t.Errorf("String = %q", l.String())
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []int16) bool {
		var l Latency
		for _, v := range raw {
			l.Add(int64(v))
		}
		if len(raw) == 0 {
			return l.Percentile(50) == 0
		}
		p50 := l.Percentile(50)
		return p50 >= l.Min() && p50 <= l.Max() && l.Percentile(1) == l.Min() && l.Percentile(100) == l.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(50, 100); got != 0.5 {
		t.Errorf("throughput = %v", got)
	}
	if got := Throughput(50, 0); got != 0 {
		t.Errorf("zero-cycle throughput = %v", got)
	}
}

func TestTableFormat(t *testing.T) {
	tb := NewTable("Results", "load", "latency", "ok")
	tb.AddRow(0.1, int64(42), true)
	tb.AddRow(0.25, int64(7), false)
	if tb.Rows() != 2 {
		t.Errorf("rows = %d", tb.Rows())
	}
	s := tb.String()
	for _, want := range []string{"Results", "load", "latency", "0.100", "42", "true", "false", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	// Columns aligned: header row and data rows have consistent prefixes.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestCellFormats(t *testing.T) {
	if got := Cell(1.5); got != "1.500" {
		t.Errorf("float cell = %q", got)
	}
	if got := Cell(float32(2)); got != "2.000" {
		t.Errorf("float32 cell = %q", got)
	}
	if got := Cell("x"); got != "x" {
		t.Errorf("string cell = %q", got)
	}
	if got := Cell(7); got != "7" {
		t.Errorf("int cell = %q", got)
	}
}
