package eval

import (
	"math"
	"math/rand"
	"testing"

	"adahealth/internal/vec"
)

// naiveOverallSimilarity is the O(n²) definition from the textbook:
// weighted average of within-cluster mean pairwise cosine similarity.
func naiveOverallSimilarity(data [][]float64, labels []int, k int) float64 {
	n := len(data)
	os := 0.0
	for c := 0; c < k; c++ {
		var members [][]float64
		for i, l := range labels {
			if l == c {
				members = append(members, data[i])
			}
		}
		if len(members) == 0 {
			continue
		}
		sum := 0.0
		for _, a := range members {
			for _, b := range members {
				if na, nb := vec.Norm(a), vec.Norm(b); na > 0 && nb > 0 {
					sum += vec.Dot(a, b) / (na * nb)
				}
			}
		}
		m := float64(len(members))
		os += m / float64(n) * (sum / (m * m))
	}
	return os
}

func TestOverallSimilarityMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		d := 2 + rng.Intn(6)
		k := 1 + rng.Intn(4)
		data := make([][]float64, n)
		labels := make([]int, n)
		for i := range data {
			data[i] = make([]float64, d)
			for j := range data[i] {
				data[i][j] = math.Abs(rng.NormFloat64()) // count-like
			}
			labels[i] = rng.Intn(k)
		}
		got, err := OverallSimilarity(data, labels, k)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveOverallSimilarity(data, labels, k)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: OS fast %v vs naive %v", trial, got, want)
		}
	}
}

func TestOverallSimilarityPerfectClusters(t *testing.T) {
	// Identical vectors within each cluster → OS = 1.
	data := [][]float64{{1, 0}, {1, 0}, {0, 2}, {0, 2}}
	labels := []int{0, 0, 1, 1}
	got, err := OverallSimilarity(data, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("OS = %v, want 1", got)
	}
}

func TestOverallSimilarityOrthogonalMess(t *testing.T) {
	// One cluster of mutually orthogonal vectors: OS = 1/m.
	data := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	labels := []int{0, 0, 0}
	got, err := OverallSimilarity(data, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("OS = %v, want 1/3", got)
	}
}

func TestOverallSimilarityZeroVector(t *testing.T) {
	data := [][]float64{{0, 0}, {1, 0}}
	labels := []int{0, 0}
	got, err := OverallSimilarity(data, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of normalized = [0.5, 0]; ||c||² = 0.25.
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("OS with zero vector = %v, want 0.25", got)
	}
}

func TestOverallSimilarityErrors(t *testing.T) {
	if _, err := OverallSimilarity(nil, nil, 1); err == nil {
		t.Error("accepted empty data")
	}
	if _, err := OverallSimilarity([][]float64{{1}}, []int{3}, 2); err == nil {
		t.Error("accepted out-of-range label")
	}
}
