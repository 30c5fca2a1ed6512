package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail read off fewer than ten samples is one scheduler hiccup, not a
// property of the program.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the nearest-rank
// rule. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// beyond is the number of samples strictly above the nearest-rank q-quantile
// position.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailQuantile returns the highest of the candidate quantiles (tried in
// descending order) that keeps at least minBeyond samples beyond it, so a
// short window reports p98 or p95 under its true name instead of a p99 made
// of three samples. It returns 0 when even the lowest candidate fails.
func tailQuantile(n int, candidates ...float64) float64 {
	for _, q := range candidates {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of v (mean of the middle pair for even
// lengths); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// relSpread is how far apart the values of one run lie, as a share of their
// median: the distance between their quartiles, or, with fewer than four
// values, between the largest and the smallest. It is recorded beside every
// metric that is a median over windows.
func relSpread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := slices.Min(v), slices.Max(v)
	if len(v) >= 4 {
		lo, hi = quartiles(v)
	}
	return (hi - lo) / math.Abs(m)
}
