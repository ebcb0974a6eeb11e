// Package cluster implements the center-based clustering ADA-HEALTH
// sweeps: K-means with k-means++ seeding, run either by
// Lloyd's algorithm — as a dense scan or as a sparse-aware parallel
// kernel tuned for the VSM patient matrices — or by Sculley's
// mini-batch K-means.
//
// # Algorithms
//
//	algorithm    exactness                      runs where
//	---------    -----------------------------  ------------------------------------
//	lloyd        exact (the default)            the sweep and partial mining; routes
//	                                            to the sparse kernel when it pays
//	dense-lloyd  exact (the reference)          the equivalence tests
//	sparse-lloyd exact; ≡ dense only when no    the equivalence tests (forced CSR)
//	             point's argmin is a near-tie
//	minibatch    APPROXIMATE (Sculley),         only where selected (-algorithm or a
//	             deterministic under Seed; its  per-job override); the assignment step
//	             sparse step ≡ its dense step   is pruned on a CSR view when it pays
//
// "auto" is accepted as a name for lloyd (AlgorithmAuto is the same
// value). lloyd picks the sparse kernel when a CSR view is supplied or
// when SparseProfitable says the data is sparse enough for it to pay,
// and the dense scan otherwise. minibatch makes the same choice for
// its assignment step (see "Pruned exact assignment").
//
// # Sparse kernel design
//
// VSM patient vectors are inherently sparse exam histories, so the
// hot assignment step stores the data as a CSR matrix (vec.CSRMatrix:
// flat contiguous Values/ColIdx/RowPtr arrays with cached per-row
// squared norms) and scores each point against each centroid through
// the identity
//
//	‖x−c‖² = ‖x‖² + ‖c‖² − 2⟨x,c⟩
//
// ‖x‖² is cached once per run, ‖c‖² once per iteration, and ⟨x,c⟩ is
// a sparse dot product, so one assignment costs O(K·nnz(x)) instead
// of O(K·d). The argmin scans centroids in index order with a strict
// "<" comparison — the same tie-breaking as the dense kernel.
//
// # Parallelism and determinism
//
// The label scan is fanned out across a chunked goroutine pool
// (Options.Parallelism workers; each worker owns a contiguous row
// range and a private partial counts vector, merged at a barrier).
// Labels depend only on (row, centroids), and integer count merging
// is order-independent, so the scan is deterministic for any worker
// count. The centroid sums are then accumulated in a single O(nnz)
// pass in row order — deliberately not per-worker — because
// floating-point addition is non-associative: chunked partial sums
// would change the reduction order and hence the low-order bits of
// the centroids across worker counts. The reduction is O(nnz), a 1/K
// share of the assignment work, so Amdahl losses stay small.
//
// Determinism comes in two strengths. Across worker counts the
// guarantee is unconditional: labels depend only on (row, centroids)
// and the reduction order is fixed, so every Parallelism value yields
// bit-for-bit the same model. Against serial dense Lloyd the kernel
// is bit-for-bit identical (same Labels, SSE, Iterations — seeding,
// empty-cluster repair, convergence test and the final SSE pass all
// share the dense code paths) only while every point's winning-centroid
// margin exceeds the rounding error of the norm identity. Random
// continuous data meets that (the property tests exercise random
// sparse/dense inputs); the VSM matrices do not. Their rows are
// normalized exam counts, and count patterns repeat, so a row is often
// equidistant from two centroids in exact arithmetic; each kernel's
// rounding then decides the tie its own way. On the full-scale Table I
// working matrix (6,380 × 57, seed 1) the first assignment pass of a
// k-means++ fit already disagrees on 26 rows at K = 6, and
// sparse-lloyd and dense-lloyd end with different labels at every K
// of the grid. Catastrophic cancellation (‖x‖ ≈ ‖c‖ ≫ ‖x−c‖, e.g. raw
// coordinates around 1e8) parts them the same way. The pinned Table I
// and sweep digests are sparse-lloyd's; force DenseLloyd where dense
// parity matters more than speed.
//
// # Pruned exact assignment
//
// The mini-batch kernel keeps the dense kernel's answer while paying
// the sparse kernel's price. For each point it scores every centroid
// through the same identity, at O(K·nnz) over a transposed centroid
// block, together with a rigorous floating-point bound on how far that
// estimate can sit from the dense vec.SquaredEuclidean value (the
// derivation is on prunedArgMin). A centroid whose lower bound exceeds
// the best upper bound provably cannot win or tie and is discarded;
// if more than one centroid survives (ties, near-ties, cancellation)
// the survivors are rescored densely in index order with a strict
// "<", and a bound that is not finite sends the point to
// vec.ArgMinDistance. The step therefore returns exactly
// vec.ArgMinDistance's index for every point, and a mini-batch model
// on a CSR view is bit-for-bit the model of the dense scan
// (TestMiniBatchCSRMatchesDense, FuzzPrunedArgMinMatchesDense).
// Within an iteration the centroids are frozen, so a point sampled
// twice reuses its label.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"adahealth/internal/vec"
)

// Algorithm selects the assignment-step implementation.
type Algorithm int

const (
	// Lloyd is the classic O(n·K·d) per-iteration algorithm. It
	// auto-routes to the sparse kernel when the data is sparse enough
	// for it to pay (or when a prebuilt CSR view is supplied); the
	// result matches the dense scan bit for bit only when no point's
	// argmin is a near-tie (see the package comment: count data, where
	// distances tie in exact arithmetic, is the common exception).
	Lloyd Algorithm = iota
	// DenseLloyd forces the dense serial assignment step.
	DenseLloyd
	// SparseLloyd forces the sparse-aware parallel kernel.
	SparseLloyd
	// AlgorithmMiniBatch is Sculley-style mini-batch K-means:
	// approximate (NOT bit-for-bit comparable to Lloyd), deterministic
	// under Seed, with per-iteration cost independent of the dataset
	// size. Its pruned sparse assignment step returns exactly the dense
	// scan's labels, so the model is the same with or without a CSR
	// view.
	AlgorithmMiniBatch
)

// AlgorithmAuto is the default kernel under the name "auto": Lloyd.
const AlgorithmAuto = Lloyd

func (a Algorithm) String() string {
	switch a {
	case Lloyd:
		return "lloyd"
	case DenseLloyd:
		return "dense-lloyd"
	case SparseLloyd:
		return "sparse-lloyd"
	case AlgorithmMiniBatch:
		return "minibatch"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Valid reports whether a names a known algorithm.
func (a Algorithm) Valid() bool {
	return a >= Lloyd && a <= AlgorithmMiniBatch
}

// ParseAlgorithm maps an algorithm name (as produced by String) back
// to its value; the empty string and "auto" select the Lloyd default.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "lloyd", "auto":
		return Lloyd, nil
	case "dense-lloyd":
		return DenseLloyd, nil
	case "sparse-lloyd":
		return SparseLloyd, nil
	case "minibatch":
		return AlgorithmMiniBatch, nil
	}
	return 0, fmt.Errorf("cluster: unknown algorithm %q (want lloyd, dense-lloyd, sparse-lloyd or minibatch; auto means lloyd)", s)
}

// MarshalText encodes the algorithm as its name, so a JSON config
// override carries "algorithm": "dense-lloyd" instead of an opaque
// integer.
func (a Algorithm) MarshalText() ([]byte, error) {
	if !a.Valid() {
		return nil, fmt.Errorf("cluster: cannot marshal %s", a)
	}
	return []byte(a.String()), nil
}

// UnmarshalText is the inverse of MarshalText.
func (a *Algorithm) UnmarshalText(b []byte) error {
	v, err := ParseAlgorithm(string(b))
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// Options configures a K-means run. Zero values get sensible defaults
// from (Options).withDefaults.
type Options struct {
	K         int
	MaxIter   int     // default 100
	Tolerance float64 // max centroid movement for convergence; default 1e-8
	Seed      int64
	Algorithm Algorithm

	// Parallelism bounds the worker goroutines of the sparse kernel's
	// assignment step: 0 uses all cores (runtime.GOMAXPROCS(0)), 1 is
	// serial. The result is identical for every value (see the package
	// comment).
	Parallelism int

	// BatchSize is the AlgorithmMiniBatch sample size per iteration;
	// <= 0 uses DefaultBatchSize. Ignored by the exact kernels.
	BatchSize int

	// InitialCentroids, when non-nil, bypasses seeding (used by tests,
	// the kernel-equivalence properties, and the warm-started sweep).
	InitialCentroids [][]float64

	// Rand, when non-nil, is reseeded with Seed and used as the run's
	// stochastic stream — a reuse hook so a sweep does not allocate a
	// fresh generator per K. Results are identical to passing nil.
	Rand *rand.Rand `json:"-"`

	// Scratch, when non-nil, supplies the run's working memory
	// (labels, counts, sums, mini-batch buffers) and is grown in place
	// — the reuse hook that lets a K sweep run allocation-free after
	// the first K. A Scratch must not be shared by concurrent runs.
	Scratch *Scratch `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is a fitted cluster model.
type Result struct {
	K          int
	Centroids  [][]float64
	Labels     []int
	Sizes      []int
	SSE        float64
	Iterations int
	Converged  bool
	// Algorithm names the assignment kernel that actually ran
	// ("lloyd", "dense-lloyd", "sparse-lloyd" or "minibatch").
	Algorithm string
}

// sparseAutoThreshold is the density at or below which plain Lloyd
// auto-routes to the sparse kernel; above it the dense scan's simpler
// inner loop wins.
const sparseAutoThreshold = 0.5

// SparseProfitable reports whether the sparse kernel is expected to
// beat the dense scan for a dataset of the given shape and density.
// Callers holding a prebuilt CSR view (e.g. vsm.Matrix.Sparse) use it
// to decide whether to hand the view to KMeansCSRContext.
func SparseProfitable(rows, cols int, density float64) bool {
	return cols >= 8 && rows >= 32 && density <= sparseAutoThreshold
}

// AutoCSR scans data and returns a fresh CSR view when
// SparseProfitable says the sparse kernel will pay, else nil. The nil
// result is accepted by KMeansCSRContext, which then runs on the dense
// rows, so call sites stay uniform.
func AutoCSR(data [][]float64) *vec.CSRMatrix {
	if len(data) == 0 || !SparseProfitable(len(data), len(data[0]), vec.Density(data)) {
		return nil
	}
	return vec.NewCSRFromDense(data)
}

// KMeans clusters data into opts.K groups. Data must be non-empty and
// rectangular, with opts.K in [1, len(data)].
func KMeans(data [][]float64, opts Options) (*Result, error) {
	return run(context.Background(), data, nil, opts)
}

// KMeansCSRContext is KMeans under a context, over a prebuilt sparse
// view: the iteration loop checks ctx between Lloyd iterations and
// returns ctx.Err() (unwrapped, so errors.Is works) as soon as the
// context is cancelled or times out, and repeated runs on the same
// matrix (e.g. the Table I K sweep) share
// one CSR build — the entry point the pipeline's sweep and
// partial-mining stages use. dense, when non-nil, must be the dense
// view of m; the cold paths (seeding, empty-cluster repair, final SSE)
// and the mini-batch kernel's centroid updates run on it. A nil dense
// is materialized once from m; a nil m runs on dense alone.
func KMeansCSRContext(ctx context.Context, m *vec.CSRMatrix, dense [][]float64, opts Options) (*Result, error) {
	if m == nil {
		if dense == nil {
			return nil, fmt.Errorf("cluster: KMeansCSRContext needs a CSR view or dense rows")
		}
		return run(ctx, dense, nil, opts)
	}
	if dense == nil {
		dense = m.Dense()
	}
	if len(dense) != m.NumRows() {
		return nil, fmt.Errorf("cluster: dense view has %d rows, CSR has %d",
			len(dense), m.NumRows())
	}
	return run(ctx, dense, m, opts)
}

func run(ctx context.Context, data [][]float64, csr *vec.CSRMatrix, opts Options) (*Result, error) {
	if !opts.Algorithm.Valid() {
		return nil, fmt.Errorf("cluster: unknown algorithm %s", opts.Algorithm)
	}
	opts = opts.withDefaults()
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no data")
	}
	d := len(data[0])
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("cluster: row %d has dimension %d, want %d", i, len(row), d)
		}
	}
	if opts.K < 1 || opts.K > n {
		return nil, fmt.Errorf("cluster: K=%d outside [1,%d]", opts.K, n)
	}
	if csr != nil && csr.NumCols() != d {
		return nil, fmt.Errorf("cluster: CSR has %d cols, dense view has %d", csr.NumCols(), d)
	}

	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		rng.Seed(opts.Seed)
	}
	var centroids [][]float64
	if opts.InitialCentroids != nil {
		if len(opts.InitialCentroids) != opts.K {
			return nil, fmt.Errorf("cluster: %d initial centroids for K=%d",
				len(opts.InitialCentroids), opts.K)
		}
		centroids = make([][]float64, opts.K)
		for i, c := range opts.InitialCentroids {
			if len(c) != d {
				return nil, fmt.Errorf("cluster: initial centroid %d has dimension %d, want %d",
					i, len(c), d)
			}
			centroids[i] = vec.Clone(c)
		}
	} else {
		centroids = kmeansPPInit(data, opts.K, rng)
	}

	// Resolve the assignment kernel: a non-nil csr selects the sparse
	// kernel from here on.
	switch opts.Algorithm {
	case AlgorithmMiniBatch:
		if csr == nil {
			csr = AutoCSR(data)
		}
		return runMiniBatch(ctx, data, csr, centroids, rng, opts)
	case DenseLloyd:
		csr = nil
	case SparseLloyd:
		if csr == nil {
			csr = vec.NewCSRFromDense(data)
		}
	case Lloyd:
		if csr == nil {
			csr = AutoCSR(data)
		}
	}
	var sk *sparseKernel
	name := opts.Algorithm
	if csr != nil {
		sk = newSparseKernel(csr, opts.K, opts.Parallelism)
		name = SparseLloyd
	}

	var (
		labels []int
		counts []int
		sums   [][]float64
	)
	if opts.Scratch != nil {
		labels = opts.Scratch.ints(&opts.Scratch.labels, n)
		counts = opts.Scratch.ints(&opts.Scratch.counts, opts.K)
		sums = opts.Scratch.sumBuffers(opts.K, d)
	} else {
		labels = make([]int, n)
		counts = make([]int, opts.K)
		sums = make([][]float64, opts.K)
		for i := range sums {
			sums[i] = make([]float64, d)
		}
	}

	prev := make([]float64, d) // a centroid before its update
	res := &Result{K: opts.K, Algorithm: name.String()}
	for iter := 0; iter < opts.MaxIter; iter++ {
		// One Lloyd iteration is the cancellation granularity of the
		// hot loop: milliseconds at paper scale, so a cancelled context
		// is honoured promptly without a per-point check in the kernel.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations = iter + 1

		// Assignment step.
		if sk != nil {
			sk.assign(centroids, labels, sums, counts)
		} else {
			for i := range sums {
				for j := range sums[i] {
					sums[i][j] = 0
				}
				counts[i] = 0
			}
			for i, x := range data {
				c, _ := vec.ArgMinDistance(x, centroids)
				labels[i] = c
				counts[c]++
				vec.AddTo(sums[c], x)
			}
		}

		if updateCentroids(data, centroids, labels, sums, counts, prev) <= opts.Tolerance {
			res.Converged = true
			break
		}
	}

	// Final assignment against the converged centroids, plus SSE. The
	// sparse kernel computes the argmin; the distance itself is always
	// recomputed densely so the SSE matches serial dense Lloyd exactly.
	res.Centroids = centroids
	res.Labels = make([]int, n)
	res.Sizes = make([]int, opts.K)
	if sk != nil {
		sk.assignLabels(centroids, res.Labels)
		for i, x := range data {
			c := res.Labels[i]
			res.Sizes[c]++
			res.SSE += vec.SquaredEuclidean(x, centroids[c])
		}
		return res, nil
	}
	for i, x := range data {
		c, dist := vec.ArgMinDistance(x, centroids)
		res.Labels[i] = c
		res.Sizes[c]++
		res.SSE += dist
	}
	return res, nil
}

// updateCentroids recomputes each centroid from the accumulated
// sums/counts and returns the largest centroid movement. An empty
// cluster is reseeded at the point currently farthest from its
// assigned centroid; the point is claimed immediately (its label,
// counts and sum contributions move to the repaired cluster) so that
// a second empty cluster repaired in the same iteration cannot pick
// the same farthest point. prev is a length-d buffer the movement is
// measured from.
func updateCentroids(data, centroids [][]float64, labels []int, sums [][]float64, counts []int, prev []float64) float64 {
	moved := 0.0
	for c := range centroids {
		if counts[c] == 0 {
			far := farthestPoint(data, centroids, labels)
			delta := vec.Euclidean(centroids[c], data[far])
			copy(centroids[c], data[far])
			old := labels[far]
			labels[far] = c
			counts[c] = 1
			if old != c {
				counts[old]--
				for j, v := range data[far] {
					sums[old][j] -= v
				}
			}
			if delta > moved {
				moved = delta
			}
			continue
		}
		copy(prev, centroids[c])
		for j := range centroids[c] {
			centroids[c][j] = sums[c][j] / float64(counts[c])
		}
		if delta := vec.Euclidean(prev, centroids[c]); delta > moved {
			moved = delta
		}
	}
	return moved
}

// farthestPoint returns the index of the point with the largest
// distance to its assigned centroid.
func farthestPoint(data [][]float64, centroids [][]float64, labels []int) int {
	best, bestD := 0, -1.0
	for i, x := range data {
		if d := vec.SquaredEuclidean(x, centroids[labels[i]]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// kmeansPPInit seeds centroids by D² sampling (Arthur & Vassilvitskii).
func kmeansPPInit(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(data)
	out := make([][]float64, 0, k)
	out = append(out, vec.Clone(data[rng.Intn(n)]))
	dist := make([]float64, n)
	for i, x := range data {
		dist[i] = vec.SquaredEuclidean(x, out[0])
	}
	for len(out) < k {
		total := 0.0
		for _, w := range dist {
			total += w
		}
		var next int
		if total == 0 {
			// All points coincide with chosen centroids; pick any.
			next = rng.Intn(n)
		} else {
			u := rng.Float64() * total
			acc := 0.0
			next = n - 1
			for i, w := range dist {
				acc += w
				if acc >= u {
					next = i
					break
				}
			}
		}
		out = append(out, vec.Clone(data[next]))
		for i, x := range data {
			if d := vec.SquaredEuclidean(x, out[len(out)-1]); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return out
}
