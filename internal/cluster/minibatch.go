package cluster

import (
	"context"
	"math/rand"

	"adahealth/internal/vec"
)

// DefaultBatchSize is the mini-batch size used when Options.BatchSize
// is unset (Sculley's web-scale regime: large enough to amortize the
// per-batch centroid pass, small enough that an iteration is cheap).
const DefaultBatchSize = 1024

// runMiniBatch is the Sculley (2010) mini-batch K-means loop: each
// iteration samples BatchSize points with replacement, assigns each to
// its nearest centroid, and moves that centroid toward the point with
// a per-centroid learning rate 1/v(c), where v(c) counts every point
// the centroid has ever absorbed. The result is approximate — labels
// and SSE are NOT bit-for-bit comparable to Lloyd — but an iteration
// costs O(b·K·d) regardless of n, which is what makes >100k-patient
// datasets tractable. The run is deterministic under Options.Seed: one serial
// rand stream drives both seeding and batch sampling.
//
// Convergence is declared when the largest per-batch centroid movement
// drops to Options.Tolerance, mirroring the Lloyd criterion; the final
// Labels/Sizes/SSE come from one exact full assignment pass against
// the frozen centroids.
func runMiniBatch(ctx context.Context, data [][]float64, centroids [][]float64, rng *rand.Rand, opts Options) (*Result, error) {
	n := len(data)
	d := len(data[0])
	b := opts.BatchSize
	if b <= 0 {
		b = DefaultBatchSize
	}
	if b > n {
		b = n
	}

	var (
		batch    []int
		labs     []int
		prevFlat []float64
		absorbed = make([]int, opts.K)
	)
	if opts.Scratch != nil {
		batch = opts.Scratch.ints(&opts.Scratch.batchIdx, b)
		labs = opts.Scratch.ints(&opts.Scratch.batchLab, b)
		prevFlat = opts.Scratch.f64(&opts.Scratch.prevCents, opts.K*d)
	} else {
		batch = make([]int, b)
		labs = make([]int, b)
		prevFlat = make([]float64, opts.K*d)
	}

	res := &Result{K: opts.K, Algorithm: AlgorithmMiniBatch.String()}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1

		for i := range batch {
			batch[i] = rng.Intn(n)
		}
		// Cache assignments for the whole batch against the frozen
		// centroids, then apply the sequential per-point updates
		// (Sculley's two-phase step).
		for i, p := range batch {
			c, _ := vec.ArgMinDistance(data[p], centroids)
			labs[i] = c
		}
		for c := range centroids {
			copy(prevFlat[c*d:(c+1)*d], centroids[c])
		}
		for i, p := range batch {
			c := labs[i]
			absorbed[c]++
			eta := 1 / float64(absorbed[c])
			cent := centroids[c]
			for j, v := range data[p] {
				cent[j] += eta * (v - cent[j])
			}
		}
		moved := 0.0
		for c := range centroids {
			if delta := vec.Euclidean(prevFlat[c*d:(c+1)*d], centroids[c]); delta > moved {
				moved = delta
			}
		}
		if moved <= opts.Tolerance {
			res.Converged = true
			break
		}
	}

	res.Centroids = centroids
	res.Labels = make([]int, n)
	res.Sizes = make([]int, opts.K)
	for i, x := range data {
		c, dist := vec.ArgMinDistance(x, centroids)
		res.Labels[i] = c
		res.Sizes[c]++
		res.SSE += dist
	}
	return res, nil
}
