package cluster

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"adahealth/internal/vec"
)

// blobs generates k well-separated Gaussian blobs.
func blobs(rng *rand.Rand, k, perCluster, d int, sep float64) ([][]float64, []int) {
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = make([]float64, d)
		for j := range centers[i] {
			centers[i][j] = rng.NormFloat64() * sep
		}
	}
	var data [][]float64
	var truth []int
	for c := 0; c < k; c++ {
		for p := 0; p < perCluster; p++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = centers[c][j] + rng.NormFloat64()*0.3
			}
			data = append(data, x)
			truth = append(truth, c)
		}
	}
	return data, truth
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(vec.NewCSRFromDense(nil), Options{K: 2}); err == nil {
		t.Error("accepted empty data")
	}
	data := [][]float64{{1}, {2}}
	if _, err := KMeans(vec.NewCSRFromDense(data), Options{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := KMeans(vec.NewCSRFromDense(data), Options{K: 3}); err == nil {
		t.Error("accepted K > n")
	}
	if _, err := KMeans(vec.NewCSRFromDense(data), Options{K: 2, InitialCentroids: [][]float64{{1}}}); err == nil {
		t.Error("accepted wrong number of initial centroids")
	}
	if _, err := KMeans(vec.NewCSRFromDense(data), Options{K: 1, InitialCentroids: [][]float64{{1, 2}}}); err == nil {
		t.Error("accepted initial centroid of wrong dimension")
	}
	// An out-of-range Algorithm must not silently run dense Lloyd.
	for _, a := range []Algorithm{Algorithm(42), Algorithm(-1), AlgorithmMiniBatch + 1} {
		if _, err := KMeans(vec.NewCSRFromDense(data), Options{K: 1, Algorithm: a}); err == nil {
			t.Errorf("accepted %s", a)
		}
	}
}

func TestKMeansRecoverseparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data, truth := blobs(rng, 3, 60, 4, 12)
	res, err := KMeans(vec.NewCSRFromDense(data), Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge on easy blobs")
	}
	// Every true cluster must map to exactly one predicted label.
	mapping := map[int]map[int]int{}
	for i, lbl := range res.Labels {
		if mapping[truth[i]] == nil {
			mapping[truth[i]] = map[int]int{}
		}
		mapping[truth[i]][lbl]++
	}
	for tc, preds := range mapping {
		best, total := 0, 0
		for _, c := range preds {
			total += c
			if c > best {
				best = c
			}
		}
		purity := float64(best) / float64(total)
		if purity < 0.98 {
			t.Errorf("true cluster %d purity = %.3f, want ≈1", tc, purity)
		}
	}
}

func TestKMeansSizesAndSSEConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data, _ := blobs(rng, 4, 40, 3, 8)
	res, err := KMeans(vec.NewCSRFromDense(data), Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(data) {
		t.Errorf("sizes sum = %d, want %d", total, len(data))
	}
	got := 0.0
	for i, x := range data {
		got += vec.SquaredEuclidean(x, res.Centroids[res.Labels[i]])
	}
	if math.Abs(got-res.SSE) > 1e-6 {
		t.Errorf("SSE mismatch: result %v vs recomputed %v", res.SSE, got)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := blobs(rng, 3, 30, 3, 6)
	a, _ := KMeans(vec.NewCSRFromDense(data), Options{K: 3, Seed: 42})
	b, _ := KMeans(vec.NewCSRFromDense(data), Options{K: 3, Seed: 42})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	if a.SSE != b.SSE {
		t.Fatalf("same seed produced different SSE: %v vs %v", a.SSE, b.SSE)
	}
}

func TestKMeansK1(t *testing.T) {
	data := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	res, err := KMeans(vec.NewCSRFromDense(data), Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids[0][0] != 1 || res.Centroids[0][1] != 1 {
		t.Errorf("K=1 centroid = %v, want mean [1 1]", res.Centroids[0])
	}
	if res.SSE != 8 {
		t.Errorf("K=1 SSE = %v, want 8", res.SSE)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	data := [][]float64{{0}, {5}, {10}}
	res, err := KMeans(vec.NewCSRFromDense(data), Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.SSE > 1e-12 {
		t.Errorf("K=n SSE = %v, want 0", res.SSE)
	}
}

// Property (paper's core optimizer assumption): SSE is non-increasing
// in K for a fixed seed and well-behaved data.
func TestSSEDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data, _ := blobs(rng, 5, 50, 4, 5)
	prev := math.Inf(1)
	for _, k := range []int{2, 4, 6, 8, 12} {
		best := math.Inf(1)
		// Take the best of a few seeds to smooth local minima.
		for seed := int64(0); seed < 4; seed++ {
			res, err := KMeans(vec.NewCSRFromDense(data), Options{K: k, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.SSE < best {
				best = res.SSE
			}
		}
		if best > prev*1.02 { // small tolerance for local minima
			t.Errorf("SSE at K=%d (%v) exceeds smaller K (%v)", k, best, prev)
		}
		prev = best
	}
}

func TestEmptyClusterRepair(t *testing.T) {
	// Force an empty cluster: initial centroid far away from all data.
	data := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {5, 5}, {5.1, 5}, {5, 5.1}}
	init := [][]float64{{0, 0}, {5, 5}, {100, 100}}
	res, err := KMeans(vec.NewCSRFromDense(data), Options{K: 3, InitialCentroids: init, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(data) {
		t.Errorf("sizes sum %d after repair, want %d", total, len(data))
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for a, want := range []string{"lloyd", "dense-lloyd", "sparse-lloyd", "minibatch"} {
		if got := Algorithm(a).String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", a, got, want)
		}
	}
	if AlgorithmAuto.String() != "lloyd" {
		t.Errorf("AlgorithmAuto.String() = %q, want lloyd", AlgorithmAuto)
	}
}

// A shared Scratch across runs of varying K (the warm-started sweep's
// reuse pattern) must not change any result bit.
func TestScratchReuseAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randRows(rng, 150, 12, 0.3)
	scratch := &Scratch{}
	for _, alg := range []Algorithm{Lloyd, DenseLloyd, SparseLloyd, AlgorithmMiniBatch} {
		for _, k := range []int{2, 5, 9, 4} { // deliberately non-monotone
			want, err := KMeans(vec.NewCSRFromDense(data), Options{K: k, Seed: 9, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			got, err := KMeans(vec.NewCSRFromDense(data), Options{K: k, Seed: 9, Algorithm: alg, Scratch: scratch, Rand: rand.New(rand.NewSource(0))})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, int(alg), k, want, got)
		}
	}
}

// Mini-batch K-means is approximate but must be deterministic under
// Seed and structurally valid; on well-separated blobs it should land
// near the Lloyd objective.
func TestMiniBatchDeterministicAndReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([][]float64, 600)
	for i := range data {
		c := i % 4
		data[i] = []float64{float64(c%2)*20 + rng.NormFloat64(), float64(c/2)*20 + rng.NormFloat64()}
	}
	a, err := KMeans(vec.NewCSRFromDense(data), Options{K: 4, Seed: 5, Algorithm: AlgorithmMiniBatch, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(vec.NewCSRFromDense(data), Options{K: 4, Seed: 5, Algorithm: AlgorithmMiniBatch, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, 0, 0, a, b)
	if a.Algorithm != "minibatch" {
		t.Errorf("Algorithm = %q, want minibatch", a.Algorithm)
	}
	total := 0
	for _, s := range a.Sizes {
		total += s
	}
	if total != len(data) {
		t.Errorf("sizes sum %d, want %d", total, len(data))
	}
	lloyd, err := KMeans(vec.NewCSRFromDense(data), Options{K: 4, Seed: 5, Algorithm: DenseLloyd})
	if err != nil {
		t.Fatal(err)
	}
	if a.SSE > lloyd.SSE*2+1 {
		t.Errorf("mini-batch SSE %.2f far above Lloyd %.2f on separable blobs", a.SSE, lloyd.SSE)
	}
}

// "auto" is the default kernel: it routes exactly as Lloyd does —
// sparse data to the CSR kernel, dense data to the dense scan.
func TestAlgorithmAutoRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name string
		data [][]float64
		want string
	}{
		{"sparse-highdim", randRows(rng, 120, 40, 0.1), "sparse-lloyd"},
		{"dense-lowdim", randRows(rng, 120, 3, 1.0), "lloyd"},
		{"dense-highdim", randRows(rng, 120, 24, 1.0), "lloyd"},
	} {
		res, err := KMeans(vec.NewCSRFromDense(tc.data), Options{K: 8, Seed: 1, Algorithm: AlgorithmAuto})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Algorithm != tc.want {
			t.Errorf("%s: routed to %q, want %q", tc.name, res.Algorithm, tc.want)
		}
	}
	if a, err := ParseAlgorithm("auto"); err != nil || a != Lloyd {
		t.Errorf(`ParseAlgorithm("auto") = %s, %v; want lloyd`, a, err)
	}
}

// Auto routing must never alter the result: on every routed shape
// (sparse → the CSR kernel, dense → the dense scan), at small and large
// K, the whole result matches the dense-lloyd reference bit for bit.
func TestAutoRoutingNeverAltersResults(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		name string
		data [][]float64
		k    int
	}{
		{"sparse-smallK", randRows(rng, 150, 40, 0.1), 8},
		{"sparse-largeK", randRows(rng, 150, 40, 0.1), 40},
		{"dense-lowdim-smallK", randRows(rng, 150, 3, 1.0), 8},
		{"dense-lowdim-largeK", randRows(rng, 150, 3, 1.0), 40},
		{"dense-highdim-smallK", randRows(rng, 150, 24, 1.0), 8},
		{"dense-highdim-largeK", randRows(rng, 150, 24, 1.0), 40},
	}
	for _, tc := range cases {
		want, err := KMeans(vec.NewCSRFromDense(tc.data), Options{K: tc.k, Seed: 6, Algorithm: DenseLloyd})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := KMeans(vec.NewCSRFromDense(tc.data), Options{K: tc.k, Seed: 6, Algorithm: AlgorithmAuto})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireIdentical(t, tc.k, 0, want, got)
	}
}

func TestAlgorithmTextRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{Lloyd, DenseLloyd, SparseLloyd, AlgorithmMiniBatch} {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var back Algorithm
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != a {
			t.Errorf("round trip %s -> %s", a, back)
		}
	}
	var a Algorithm
	for _, gone := range []string{`"nope"`, `"elkan"`, `"hamerly"`, `"yinyang"`, `"filtering"`} {
		if err := json.Unmarshal([]byte(gone), &a); err == nil {
			t.Errorf("accepted unknown algorithm name %s", gone)
		}
	}
	if _, err := json.Marshal(Algorithm(42)); err == nil {
		t.Error("marshalled an out-of-range algorithm")
	}
	if _, err := ParseAlgorithm(""); err != nil {
		t.Errorf("empty name should parse as default: %v", err)
	}
}
