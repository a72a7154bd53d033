package main

import (
	"sort"
	"time"
)

// samples is a list of durations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// pct returns the p-quantile (0..1) by nearest rank, in microseconds.
func (s samples) pctUs(p float64) float64 {
	return quantile(nsToFloat(s), p) / 1e3
}

func nsToFloat(s samples) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v)
	}
	return out
}

// quantile returns the p-quantile (0..1) of xs by nearest rank; 0 for
// an empty list.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty list.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mbps converts bytes moved in d to MB/s (10^6 bytes).
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
