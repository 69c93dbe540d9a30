package experiments

import (
	"sort"
	"time"

	"repro/internal/core"
)

// Small metric helpers shared across experiments; they used to be
// duplicated near their first call sites in ras.go and extra.go.

// safeDiv returns a/b, or 0 when b is zero — metric maps prefer a sentinel
// over ±Inf.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rankCounts returns the keys of a count map by descending count, ties by
// ascending key — the order E9's tables and the takeaways list them in.
func rankCounts[K ~string](m map[K]int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// peakTrough returns the busiest and the quietest hour, the first of each
// on ties — E14's peak and trough hours, which the takeaways quote.
func peakTrough(hours [24]int) (peak, trough int) {
	for h := 1; h < 24; h++ {
		if hours[h] > hours[peak] {
			peak = h
		}
		if hours[h] < hours[trough] {
			trough = h
		}
	}
	return peak, trough
}

// boolMetric encodes a boolean as a 0/1 metric value.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// incidentsAt reads the incident count at one window out of a filter sweep;
// -1 when the sweep does not include the window.
func incidentsAt(sweep []core.SweepPoint, w time.Duration) float64 {
	for _, p := range sweep {
		if p.Window == w {
			return float64(p.Incidents)
		}
	}
	return -1
}
