package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adahealth/internal/vec"
)

// denseMiniBatch is Sculley's mini-batch loop written plainly — every
// sampled point scored by vec.ArgMinDistance, no CSR view, no row
// memo, no Scratch — with run's seeding: the reference the kernel must
// reproduce bit for bit.
func denseMiniBatch(t *testing.T, data [][]float64, opts Options) *Result {
	t.Helper()
	opts = opts.withDefaults()
	n, d := len(data), len(data[0])
	b := opts.BatchSize
	if b <= 0 {
		b = DefaultBatchSize
	}
	b = min(b, n)
	rng := rand.New(rand.NewSource(opts.Seed))
	var cents [][]float64
	if opts.InitialCentroids != nil {
		for _, c := range opts.InitialCentroids {
			cents = append(cents, vec.Clone(c))
		}
	} else {
		cents = kmeansPPInit(newPoints(nil, data), n, opts.K, rng)
	}

	res := &Result{K: opts.K, Algorithm: AlgorithmMiniBatch.String()}
	batch, labs := make([]int, b), make([]int, b)
	absorbed := make([]int, opts.K)
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		for i := range batch {
			batch[i] = rng.Intn(n)
		}
		for i, p := range batch {
			labs[i], _ = vec.ArgMinDistance(data[p], cents)
		}
		prev := make([][]float64, opts.K)
		for c := range cents {
			prev[c] = vec.Clone(cents[c])
		}
		for i, p := range batch {
			c := labs[i]
			absorbed[c]++
			eta := 1 / float64(absorbed[c])
			for j := 0; j < d; j++ {
				cents[c][j] += eta * (data[p][j] - cents[c][j])
			}
		}
		moved := 0.0
		for c := range cents {
			moved = max(moved, vec.Euclidean(prev[c], cents[c]))
		}
		if moved <= opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Centroids = cents
	res.Labels = make([]int, n)
	res.Sizes = make([]int, opts.K)
	for i, x := range data {
		c, dist := vec.ArgMinDistance(x, cents)
		res.Labels[i] = c
		res.Sizes[c]++
		res.SSE += dist
	}
	return res
}

// countRows draws n×d rows of small non-negative integers, nonzero
// with the given density: exam counts, where exact distance ties are
// common.
func countRows(rng *rand.Rand, n, d int, density float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if rng.Float64() < density {
				rows[i][j] = float64(1 + rng.Intn(4))
			}
		}
	}
	return rows
}

// TestMiniBatchCSRMatchesDense: mini-batch K-means on a CSR view
// (prunedArgMin) and on the dense rows alone (vec.ArgMinDistance)
// produce identical Labels, Sizes, SSE, Iterations, Converged flag and
// centroid bits — including inputs built to put several centroids
// within the pruning bound of each other.
func TestMiniBatchCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))

	dupRows := make([][]float64, 0, 150)
	for _, r := range randRows(rng, 30, 16, 0.25) {
		for range 5 {
			dupRows = append(dupRows, vec.Clone(r))
		}
	}
	rng.Shuffle(len(dupRows), func(i, j int) { dupRows[i], dupRows[j] = dupRows[j], dupRows[i] })

	counts := countRows(rng, 240, 20, 0.25)
	dupCents := [][]float64{counts[0], counts[0], counts[7], counts[7], counts[9]}

	// Coordinates near 1e8 that differ by small integers: the norm
	// identity cancels catastrophically, so every centroid lands
	// within the pruning bound and the dense rescoring must decide.
	offset := randRows(rng, 120, 12, 1)
	for _, r := range offset {
		for j, v := range r {
			r[j] = 1e8 + math.Round(3*v)
		}
	}

	small := randRows(rng, 12, 10, 0.4)
	sparse := randRows(rng, 200, 24, 0.2)
	warm, err := KMeans(vec.NewCSRFromDense(sparse), Options{K: 6, Seed: 3, Algorithm: AlgorithmMiniBatch, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data [][]float64
		opts Options
	}{
		{"sparse-random", sparse, Options{K: 6, Seed: 1}},
		{"sparse-random-small-batch", sparse, Options{K: 9, Seed: 2, BatchSize: 40}},
		{"dense-random", randRows(rng, 100, 8, 1), Options{K: 5, Seed: 3}},
		{"counts", counts, Options{K: 8, Seed: 4}},
		{"counts-k3", counts, Options{K: 3, Seed: 5, BatchSize: 64}},
		{"duplicate-rows", dupRows, Options{K: 7, Seed: 6}},
		{"duplicate-centroids", counts, Options{K: 5, Seed: 7, InitialCentroids: dupCents}},
		{"k-equals-n", small, Options{K: len(small), Seed: 8}},
		{"offset-1e8", offset, Options{K: 4, Seed: 9}},
		{"warm-start", sparse, Options{K: 6, Seed: 10, InitialCentroids: warm.Centroids}},
	}
	for _, tc := range cases {
		for _, maxIter := range []int{1, 50} {
			opts := tc.opts
			opts.Algorithm = AlgorithmMiniBatch
			opts.MaxIter = maxIter
			want := denseMiniBatch(t, tc.data, opts)
			got, err := KMeansCSRContext(context.Background(), vec.NewCSRFromDense(tc.data), opts)
			if err != nil {
				t.Fatal(err)
			}
			// KMeans takes the same pruned step, whatever the
			// density.
			auto, err := KMeans(vec.NewCSRFromDense(tc.data), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/maxiter=%d", tc.name, maxIter), func(t *testing.T) {
				requireIdentical(t, maxIter, 0, want, got)
				requireIdentical(t, maxIter, 1, want, auto)
			})
		}
	}

	// One Scratch across a growing dataset, as a live dataset reuses
	// it: every buffer regrows, and no stale row stamp may leak a label
	// from the previous run.
	grown := countRows(rng, 300, 18, 0.3)
	scratch := &Scratch{}
	for _, n := range []int{40, 41, 57, 90, 150, 151, 300, 120} {
		opts := Options{K: 8, Seed: int64(n), Algorithm: AlgorithmMiniBatch, MaxIter: 20}
		want := denseMiniBatch(t, grown[:n], opts)
		opts.Scratch = scratch
		got, err := KMeansCSRContext(context.Background(), vec.NewCSRFromDense(grown[:n]), opts)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, n, 0, want, got)
	}
}

// fuzzArgMinCase decodes bytes into one row and K centroids:
// data[0] picks d, data[1] K, data[2] a value scale (small integers,
// fractions, a 1e8 offset that cancels in the norm identity, 1e300
// that overflows it, 1e-160 that underflows it), data[3] a centroid
// to overwrite with a copy of centroid 0 (an exact tie), and the rest
// the row then the centroids, a zero wherever the byte is a multiple
// of three.
func fuzzArgMinCase(data []byte) (row []float64, cents [][]float64, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	d := 1 + int(data[0]%16)
	k := 1 + int(data[1]%9)
	mode := data[2] % 5
	dup := int(data[3]) % k
	rest := data[4:]
	next := func() float64 {
		if len(rest) == 0 {
			return 0
		}
		b := rest[0]
		rest = rest[1:]
		if b%3 == 0 {
			return 0
		}
		v := float64(int(b) - 128)
		switch mode {
		case 0:
			return math.Round(v / 16)
		case 1:
			return v / 7
		case 2:
			return 1e8 + math.Round(v/32)
		case 3:
			return v * 1e300
		default:
			return v * 1e-160
		}
	}
	row = make([]float64, d)
	for j := range row {
		row[j] = next()
	}
	cents = make([][]float64, k)
	for c := range cents {
		cents[c] = make([]float64, d)
		for j := range cents[c] {
			cents[c][j] = next()
		}
	}
	if dup > 0 {
		copy(cents[dup], cents[0])
	}
	return row, cents, true
}

// FuzzPrunedArgMinMatchesDense: prunedArgMin answers the index
// vec.ArgMinDistance answers, for any row and centroids — ties,
// near-ties under cancellation, and rows or centroids outside the
// range the error bound covers. Seeds live in testdata/fuzz/.
func FuzzPrunedArgMinMatchesDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		row, cents, ok := fuzzArgMinCase(data)
		if !ok {
			return
		}
		rows := [][]float64{row}
		p := newPrunedArgMin(vec.NewCSRFromDense(rows), rows, len(cents), &Scratch{})
		p.load(cents)
		want, _ := vec.ArgMinDistance(row, cents)
		if got := p.argmin(0, cents); got != want {
			t.Fatalf("row %v centroids %v: pruned argmin %d, dense %d", row, cents, got, want)
		}
	})
}
