package eval

import (
	"fmt"

	"adahealth/internal/vec"
)

// OverallSimilarity is the paper's interestingness metric for partial
// mining (Section IV-A, citing Tan/Steinbach/Kumar): the cluster
// cohesiveness computed as the average pairwise cosine similarity of
// members within each cluster, weighted by cluster size:
//
//	OS = Σ_r (n_r / n) · (1/n_r²) Σ_{i,j ∈ r} cos(x_i, x_j)
//
// Using L2-normalized rows, the inner double sum equals ||c_r||² where
// c_r is the mean of the normalized member vectors, which is how it is
// computed here (O(n·d) instead of O(n²·d)).
func OverallSimilarity(data [][]float64, labels []int, k int) (float64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("eval: no data")
	}
	if len(data) != len(labels) {
		return 0, fmt.Errorf("eval: %d points but %d labels", len(data), len(labels))
	}
	d := len(data[0])
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	counts := make([]int, k)
	unit := make([]float64, d)
	for i, x := range data {
		c := labels[i]
		if c < 0 || c >= k {
			return 0, fmt.Errorf("eval: label %d out of range [0,%d)", c, k)
		}
		norm := vec.Norm(x)
		if norm == 0 {
			// A zero vector contributes zero similarity with everyone;
			// count it but add nothing.
			counts[c]++
			continue
		}
		for j, v := range x {
			unit[j] = v / norm
		}
		vec.AddTo(sums[c], unit)
		counts[c]++
	}
	n := float64(len(data))
	os := 0.0
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		nc := float64(counts[c])
		meanNormSq := 0.0
		for _, v := range sums[c] {
			meanNormSq += (v / nc) * (v / nc)
		}
		os += nc / n * meanNormSq
	}
	return os, nil
}
