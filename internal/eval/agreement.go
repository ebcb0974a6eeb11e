package eval

import (
	"fmt"
	"math"
)

// Purity measures how well predicted clusters align with reference
// labels: each cluster is credited with its majority reference class.
// 1 means every cluster is pure; the metric is biased upward for many
// small clusters (use ARI/NMI for chance-corrected comparisons).
func Purity(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("eval: %d predictions but %d references", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("eval: empty labelings")
	}
	counts := map[[2]int]int{}
	clusters := map[int]bool{}
	for i := range pred {
		counts[[2]int{pred[i], truth[i]}]++
		clusters[pred[i]] = true
	}
	correct := 0
	for c := range clusters {
		best := 0
		for key, n := range counts {
			if key[0] == c && n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(pred)), nil
}

// contingency builds the cluster × class contingency table and the
// marginals of two labelings.
func contingency(a, b []int) (table map[[2]int]int, am, bm map[int]int) {
	table = map[[2]int]int{}
	am = map[int]int{}
	bm = map[int]int{}
	for i := range a {
		table[[2]int{a[i], b[i]}]++
		am[a[i]]++
		bm[b[i]]++
	}
	return table, am, bm
}

// AdjustedRandIndex is the chance-corrected agreement between two
// labelings, in [-1, 1]: 1 for identical partitions, ≈0 for random
// agreement.
func AdjustedRandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("eval: %d vs %d labels", len(a), len(b))
	}
	n := len(a)
	if n == 0 {
		return 0, fmt.Errorf("eval: empty labelings")
	}
	table, am, bm := contingency(a, b)
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }

	var sumComb, sumA, sumB float64
	for _, v := range table {
		sumComb += choose2(v)
	}
	for _, v := range am {
		sumA += choose2(v)
	}
	for _, v := range bm {
		sumB += choose2(v)
	}
	total := choose2(n)
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		return 1, nil // both partitions trivial (all-one-cluster etc.)
	}
	return (sumComb - expected) / (maxIndex - expected), nil
}

// NormalizedMutualInfo is the mutual information between two labelings
// normalized by the mean of their entropies, in [0, 1].
func NormalizedMutualInfo(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("eval: %d vs %d labels", len(a), len(b))
	}
	n := float64(len(a))
	if n == 0 {
		return 0, fmt.Errorf("eval: empty labelings")
	}
	table, am, bm := contingency(a, b)

	entropy := func(m map[int]int) float64 {
		h := 0.0
		for _, v := range m {
			p := float64(v) / n
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
		return h
	}
	ha, hb := entropy(am), entropy(bm)
	if ha == 0 && hb == 0 {
		return 1, nil // both trivial and identical in structure
	}
	mi := 0.0
	for key, v := range table {
		pxy := float64(v) / n
		px := float64(am[key[0]]) / n
		py := float64(bm[key[1]]) / n
		if pxy > 0 {
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0, nil
	}
	nmi := mi / denom
	if nmi > 1 {
		nmi = 1 // guard floating error
	}
	if nmi < 0 {
		nmi = 0
	}
	return nmi, nil
}
