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
// costs O(b·(K·nnz + d)) regardless of n, which is what makes
// >100k-patient datasets tractable. The run is deterministic under
// Options.Seed: one serial rand stream drives both seeding and batch
// sampling.
//
// The nearest centroid comes from prunedArgMin, which returns exactly
// the index vec.ArgMinDistance would at O(K·nnz) per point for all but
// the near-tied centroids, so the model is bit-for-bit the one the
// dense scan produces. Within an iteration the centroids are frozen,
// so a row drawn twice reuses its label.
//
// Convergence is declared when the largest per-batch centroid movement
// drops to Options.Tolerance, mirroring the Lloyd criterion; the final
// Labels/Sizes/SSE come from one exact full assignment pass against
// the frozen centroids.
func runMiniBatch(ctx context.Context, pts *points, n int, centroids [][]float64, rng *rand.Rand, opts Options) (*Result, error) {
	d := pts.d
	b := opts.BatchSize
	if b <= 0 {
		b = DefaultBatchSize
	}
	if b > n {
		b = n
	}

	s := opts.Scratch
	if s == nil {
		s = new(Scratch)
	}
	var (
		batch    = s.ints(&s.batchIdx, b)
		prevFlat = s.f64(&s.prevCents, opts.K*d)
		stamp    = s.ints(&s.rowStamp, n)
		rowLab   = s.ints(&s.rowLab, n)
		absorbed = make([]int, opts.K)
		near     = newPrunedArgMin(pts.m, nil, opts.K, s)
	)

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
		near.load(centroids)
		for _, p := range batch {
			if stamp[p] != iter+1 {
				stamp[p] = iter + 1
				rowLab[p] = near.argmin(p, centroids)
			}
		}
		for c := range centroids {
			copy(prevFlat[c*d:(c+1)*d], centroids[c])
		}
		for _, p := range batch {
			c := rowLab[p]
			absorbed[c]++
			eta := 1 / float64(absorbed[c])
			x := pts.row(p)
			cent := centroids[c][:len(x)]
			for j, v := range x {
				cent[j] += float64(eta * (v - cent[j]))
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
	near.load(centroids)
	for i := range n {
		c := near.argmin(i, centroids)
		res.Labels[i] = c
		res.Sizes[c]++
		res.SSE += vec.SquaredEuclidean(pts.row(i), centroids[c])
	}
	return res, nil
}
