// Package stats implements the data characterization step of
// ADA-HEALTH: statistical descriptors modelling a dataset's
// distribution (sparseness, frequency skew, entropy, concentration)
// that downstream components use to decide which transformations,
// partial-mining strategies and end-goals are viable.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual moments and order statistics of a sample.
type Summary struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean"`
	Std      float64 `json:"std"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Skewness float64 `json:"skewness"`
	Kurtosis float64 `json:"kurtosis"` // excess kurtosis
}

// Summarize computes a Summary of xs. It returns the zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n}
	sum := 0.0
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)

	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += float64(d * d)
		m3 += float64(d * d * d)
		m4 += float64(d * d * d * d)
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)
	s.Std = math.Sqrt(m2)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4/(m2*m2) - 3
	}

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation. It returns 0 for empty input.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(pos) - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Entropy returns the Shannon entropy (bits) of a discrete
// distribution given by non-negative counts. Zero counts contribute
// nothing; an all-zero input yields 0.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= float64(p * math.Log2(p))
	}
	return h
}

// NormalizedEntropy returns Entropy(counts) / log2(k) where k is the
// number of categories with capacity to occur (len(counts)); 1 means
// uniform, 0 means fully concentrated. Returns 0 when k < 2.
func NormalizedEntropy(counts []int) float64 {
	if len(counts) < 2 {
		return 0
	}
	return Entropy(counts) / math.Log2(float64(len(counts)))
}

// Gini returns the Gini concentration coefficient of non-negative
// counts, in [0, 1): 0 for a perfectly uniform distribution, →1 for
// total concentration on a single category.
func Gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	total := 0.0
	for i, c := range counts {
		sorted[i] = float64(c)
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(sorted)
	// G = (2 Σ_i i·x_i) / (n Σ x) - (n+1)/n with 1-based i.
	weighted := 0.0
	for i, x := range sorted {
		weighted += float64(float64(i+1) * x)
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// TopShareByCount returns the fraction of total mass covered by the
// top `k` largest counts.
func TopShareByCount(counts []int, k int) float64 {
	if k <= 0 || len(counts) == 0 {
		return 0
	}
	if k > len(counts) {
		k = len(counts)
	}
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total, top := 0, 0
	for i, c := range sorted {
		total += c
		if i < k {
			top += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
