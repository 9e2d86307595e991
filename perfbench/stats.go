package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for no samples. The input is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond reports how many of n samples lie above the nearest-rank p-th
// percentile: a percentile is only quoted when at least ten do.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median returns the middle sample, or the mean of the two middle samples;
// NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// digest is the hex SHA-256 of an output text.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// digestVerdict classifies each unit digest of one run. With a stored
// digest for the seed, a unit matches only that digest. Without one, the
// units are checked against each other: the most common digest (ties go to
// the first seen) is the reference, so a run whose processes disagree fails
// even on a seed nobody has recorded. It returns the reference digest and
// whether each unit matched it.
func digestVerdict(stored string, units []string) (ref string, ok []bool) {
	ref = stored
	if ref == "" {
		count := map[string]int{}
		for _, d := range units {
			count[d]++
			if count[d] > count[ref] {
				ref = d
			}
		}
	}
	ok = make([]bool, len(units))
	for i, d := range units {
		ok[i] = d != "" && d == ref
	}
	return ref, ok
}
