// Package vec provides the small dense/sparse vector algebra the
// mining algorithms are built on: distances, norms, centroids and a
// compact sparse representation suited to the inherently sparse
// Vector Space Model matrices produced from medical examination logs.
package vec

import "math"

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Euclidean returns ||a-b||.
func Euclidean(a, b []float64) float64 { return math.Sqrt(SquaredEuclidean(a, b)) }

// ArgMinDistance returns the index of the centroid nearest to x under
// squared Euclidean distance, and that distance.
func ArgMinDistance(x []float64, centroids [][]float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, c := range centroids {
		if d := SquaredEuclidean(x, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
