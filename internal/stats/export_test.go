package stats

import "slices"

// Min reports the smallest sample, or 0 with none.
func (l *Latency) Min() int64 {
	if len(l.values) == 0 {
		return 0
	}
	return slices.Min(l.values)
}
