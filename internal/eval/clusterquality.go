package eval

import (
	"fmt"
	"math"

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
// computed here (O(nnz) instead of O(n²·d)), from the rows' cached
// squared norms.
func OverallSimilarity(data *vec.CSRMatrix, labels []int, k int) (float64, error) {
	n := data.NumRows()
	if n == 0 {
		return 0, fmt.Errorf("eval: no data")
	}
	if n != len(labels) {
		return 0, fmt.Errorf("eval: %d points but %d labels", n, len(labels))
	}
	d := data.NumCols()
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	counts := make([]int, k)
	unit := make([]float64, d)
	for i, c := range labels {
		if c < 0 || c >= k {
			return 0, fmt.Errorf("eval: label %d out of range [0,%d)", c, k)
		}
		counts[c]++
		norm := math.Sqrt(data.RowNorm2(i))
		if norm == 0 {
			// A zero vector contributes zero similarity with everyone;
			// count it but add nothing.
			continue
		}
		vals, cols := data.RowView(i)
		u := unit[:len(vals)]
		for p, v := range vals {
			u[p] = v / norm
		}
		vec.ScatterAdd(sums[c], u, cols)
	}
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
		os += nc / float64(n) * meanNormSq
	}
	return os, nil
}
