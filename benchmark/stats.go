package main

import (
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank, 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count), 0 for an empty slice. vals is left as it was.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	vals = append([]float64(nil), vals...)
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// quantile is the q-quantile of unsorted samples, which it leaves as they
// were.
func quantile(samples []float64, q float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, q)
}

// micros converts a duration to microseconds with its full resolution.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
