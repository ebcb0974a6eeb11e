package cluster

import (
	"context"
	"math/rand"
	"testing"

	"adahealth/internal/vec"
)

// randRows generates n×d rows where each cell is nonzero with the
// given density; density 1 yields fully dense data.
func randRows(rng *rand.Rand, n, d int, density float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if density >= 1 || rng.Float64() < density {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	return rows
}

func distinctInit(rng *rand.Rand, data [][]float64, k int) [][]float64 {
	perm := rng.Perm(len(data))
	init := make([][]float64, k)
	for i := range init {
		init[i] = vec.Clone(data[perm[i]])
	}
	return init
}

func requireIdentical(t *testing.T, trial int, workers int, want, got *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("trial %d workers %d: Iterations %d, want %d",
			trial, workers, got.Iterations, want.Iterations)
	}
	if got.Converged != want.Converged {
		t.Fatalf("trial %d workers %d: Converged %v, want %v",
			trial, workers, got.Converged, want.Converged)
	}
	if got.SSE != want.SSE {
		t.Fatalf("trial %d workers %d: SSE %v, want bit-identical %v",
			trial, workers, got.SSE, want.SSE)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("trial %d workers %d: label[%d] = %d, want %d",
				trial, workers, i, got.Labels[i], want.Labels[i])
		}
	}
	for c := range want.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			t.Fatalf("trial %d workers %d: size[%d] = %d, want %d",
				trial, workers, c, got.Sizes[c], want.Sizes[c])
		}
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if got.Centroids[c][j] != want.Centroids[c][j] {
				t.Fatalf("trial %d workers %d: centroid[%d][%d] = %v, want bit-identical %v",
					trial, workers, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
}

// Property (the kernel's core guarantee): the sparse parallel kernel
// produces bit-for-bit identical Labels, SSE, Iterations, Sizes and
// Centroids to serial dense Lloyd, across random sparse and dense
// inputs, seeds, and worker counts.
func TestSparseParallelMatchesDenseLloyd(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	densities := []float64{0.02, 0.1, 0.3, 0.6, 1.0}
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(180)
		d := 5 + rng.Intn(36)
		k := 2 + rng.Intn(7)
		density := densities[trial%len(densities)]
		data := randRows(rng, n, d, density)
		init := distinctInit(rng, data, k)

		dense, err := KMeans(vec.NewCSRFromDense(data), Options{
			K: k, Algorithm: DenseLloyd, InitialCentroids: init, MaxIter: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			sparse, err := KMeans(vec.NewCSRFromDense(data), Options{
				K: k, Algorithm: SparseLloyd, Parallelism: workers,
				InitialCentroids: init, MaxIter: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, trial, workers, dense, sparse)
		}
	}
}

// The guarantee extends through seeding: with the same Seed and no
// InitialCentroids, the sparse kernel's k-means++ run is bit-identical
// to the dense one (seeding shares the dense code path).
func TestSparseParallelMatchesDenseLloydWithSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		data := randRows(rng, 120, 24, 0.15)
		seed := rng.Int63()
		dense, err := KMeans(vec.NewCSRFromDense(data), Options{K: 5, Seed: seed, Algorithm: DenseLloyd})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			sparse, err := KMeans(vec.NewCSRFromDense(data), Options{
				K: 5, Seed: seed, Algorithm: SparseLloyd, Parallelism: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, trial, workers, dense, sparse)
		}
	}
}

// KMeansCSRContext with a prebuilt CSR view (the Sweep path) must agree with
// dense Lloyd.
func TestKMeansCSRSharedViewMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	data := randRows(rng, 150, 30, 0.1)
	csr := vec.NewCSRFromDense(data)
	init := distinctInit(rng, data, 4)

	dense, err := KMeans(vec.NewCSRFromDense(data), Options{K: 4, Algorithm: DenseLloyd, InitialCentroids: init})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := KMeansCSRContext(context.Background(), csr, Options{K: 4, InitialCentroids: init})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, 0, 0, dense, shared)
	if shared.Algorithm != "sparse-lloyd" {
		t.Errorf("Algorithm = %q, want sparse-lloyd", shared.Algorithm)
	}
}

// Auto-routing: plain Lloyd on sparse high-dimensional data runs the
// sparse kernel; low-dimensional dense data stays on the dense scan.
func TestLloydAutoRoutesToSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sparseData := randRows(rng, 100, 40, 0.1)
	res, err := KMeans(vec.NewCSRFromDense(sparseData), Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "sparse-lloyd" {
		t.Errorf("sparse data: Algorithm = %q, want sparse-lloyd", res.Algorithm)
	}
	denseData := randRows(rng, 100, 3, 1.0)
	res, err = KMeans(vec.NewCSRFromDense(denseData), Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "lloyd" {
		t.Errorf("dense data: Algorithm = %q, want lloyd", res.Algorithm)
	}
}

// Regression for the empty-cluster repair: two clusters emptied in the
// same iteration must be reseeded at two different points.
func TestEmptyClusterRepairClaimsPoint(t *testing.T) {
	// Three tight groups plus two extreme outliers; two initial
	// centroids far away so both become empty in iteration one.
	data := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{50, 50}, {-50, 50},
	}
	init := [][]float64{{0, 0}, {1000, 1000}, {-1000, 1000}}
	res, err := KMeans(vec.NewCSRFromDense(data), Options{K: 3, InitialCentroids: init, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Sizes {
		if s == 0 {
			t.Errorf("cluster %d still empty after repair (sizes %v)", c, res.Sizes)
		}
	}
	// The two outliers must land in different clusters.
	if res.Labels[3] == res.Labels[4] {
		t.Errorf("both outliers in cluster %d; repair reseeded at the same point", res.Labels[3])
	}
}
