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
//	lloyd        exact (the default)            the sweep and partial mining; the
//	                                            sparse kernel where it pays
//	dense-lloyd  exact (the reference)          the equivalence tests
//	sparse-lloyd exact; ≡ dense only when no    the equivalence tests
//	             point's argmin is a near-tie
//	minibatch    APPROXIMATE (Sculley),         only where selected (-algorithm or a
//	             deterministic under Seed; its  per-job override); its assignment
//	             pruned step ≡ the dense scan   step is always pruned
//
// "auto" is accepted as a name for lloyd (AlgorithmAuto is the same
// value). Every kernel takes its data as one vec.CSRMatrix. lloyd runs
// the sparse kernel on it when SparseProfitable says the data is
// sparse enough to pay; otherwise, on small or dense data, it
// materializes the dense rows for that one run and scans them, as
// dense-lloyd always does. On the sparse route the cold paths
// (k-means++ seeding, empty-cluster repair, the final SSE) and the
// mini-batch update keep their dense arithmetic by scattering one row
// at a time into a dense scratch row.
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
	"math"
	"math/rand"
	"runtime"

	"adahealth/internal/vec"
)

// Algorithm selects the assignment-step implementation.
type Algorithm int

const (
	// Lloyd is the classic O(n·K·d) per-iteration algorithm. It
	// auto-routes to the sparse kernel when the data is sparse enough
	// for it to pay; the result matches the dense scan bit for bit only
	// when no point's argmin is a near-tie (see the package comment:
	// count data, where distances tie in exact arithmetic, is the
	// common exception).
	Lloyd Algorithm = iota
	// DenseLloyd forces the dense serial assignment step.
	DenseLloyd
	// SparseLloyd forces the sparse-aware parallel kernel.
	SparseLloyd
	// AlgorithmMiniBatch is Sculley-style mini-batch K-means:
	// approximate (NOT bit-for-bit comparable to Lloyd), deterministic
	// under Seed, with per-iteration cost independent of the dataset
	// size. Its pruned sparse assignment step returns exactly the dense
	// scan's labels, so the model is the dense scan's.
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
	// A Go-side hand-off, like Rand and Scratch: a decoded per-job
	// configuration never carries it.
	InitialCentroids [][]float64 `json:"-"`

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
func SparseProfitable(rows, cols int, density float64) bool {
	return cols >= 8 && rows >= 32 && density <= sparseAutoThreshold
}

// sparseRoute reports whether a run of alg on m keeps m sparse:
// SparseLloyd and mini-batch (whose pruned step is exact) always,
// DenseLloyd never, and Lloyd when SparseProfitable says the sparse
// kernel pays. Otherwise the run materializes m's dense rows for
// itself.
func sparseRoute(m *vec.CSRMatrix, alg Algorithm) bool {
	switch alg {
	case SparseLloyd, AlgorithmMiniBatch:
		return true
	case DenseLloyd:
		return false
	}
	n, d := m.NumRows(), m.NumCols()
	return SparseProfitable(n, d, float64(m.RowPtr[n])/float64(n*d))
}

// KMeans clusters the rows of data into opts.K groups. Data must be
// non-empty, with opts.K in [1, data.NumRows()].
func KMeans(data *vec.CSRMatrix, opts Options) (*Result, error) {
	return run(context.Background(), data, opts)
}

// KMeansCSRContext is KMeans under a context: the iteration loop
// checks ctx between Lloyd iterations and returns ctx.Err()
// (unwrapped, so errors.Is works) as soon as the context is cancelled
// or times out — the entry point the pipeline's sweep and
// partial-mining stages use.
func KMeansCSRContext(ctx context.Context, m *vec.CSRMatrix, opts Options) (*Result, error) {
	return run(ctx, m, opts)
}

func run(ctx context.Context, m *vec.CSRMatrix, opts Options) (*Result, error) {
	if !opts.Algorithm.Valid() {
		return nil, fmt.Errorf("cluster: unknown algorithm %s", opts.Algorithm)
	}
	opts = opts.withDefaults()
	n, d := m.NumRows(), m.NumCols()
	if n == 0 {
		return nil, fmt.Errorf("cluster: no data")
	}
	if opts.K < 1 || opts.K > n {
		return nil, fmt.Errorf("cluster: K=%d outside [1,%d]", opts.K, n)
	}
	// Resolve the assignment kernel: the sparse route runs on m, the
	// dense one on rows materialized for this run.
	sparse := sparseRoute(m, opts.Algorithm)
	var dense [][]float64
	if !sparse {
		dense = m.Dense()
	}
	pts := newPoints(m, dense)

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
		centroids = kmeansPPInit(pts, n, opts.K, rng)
	}

	if opts.Algorithm == AlgorithmMiniBatch {
		return runMiniBatch(ctx, pts, n, centroids, rng, opts)
	}
	var sk *sparseKernel
	name := opts.Algorithm
	if sparse {
		sk = newSparseKernel(m, opts.K, opts.Parallelism)
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
			for i, x := range pts.dense {
				c, _ := vec.ArgMinDistance(x, centroids)
				labels[i] = c
				counts[c]++
				vec.AddTo(sums[c], x)
			}
		}

		if updateCentroids(pts, centroids, labels, sums, counts, prev) <= opts.Tolerance {
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
		for i, c := range res.Labels {
			res.Sizes[c]++
			res.SSE += vec.SquaredEuclidean(pts.row(i), centroids[c])
		}
		return res, nil
	}
	for i, x := range pts.dense {
		c, dist := vec.ArgMinDistance(x, centroids)
		res.Labels[i] = c
		res.Sizes[c]++
		res.SSE += dist
	}
	return res, nil
}

// points reads the rows of a run as dense vectors, the form the
// seeding, the empty-cluster repair, the final SSE and the mini-batch
// update keep their arithmetic in: from dense, when the run
// materialized its rows, or else by scattering one row of m at a time
// into buf, so the values and their column order are exactly the
// dense row's. A scattered row is valid until the next call.
type points struct {
	m     *vec.CSRMatrix
	dense [][]float64
	d     int
	buf   []float64
	at    int     // the row of m in buf, -1 for none
	cols  []int32 // its columns
}

// newPoints reads the rows of dense when it is non-nil (and then
// leaves its m nil), else of m.
func newPoints(m *vec.CSRMatrix, dense [][]float64) *points {
	if dense != nil {
		return &points{dense: dense, d: len(dense[0])}
	}
	return &points{m: m, d: m.Cols, buf: make([]float64, m.Cols), at: -1}
}

func (p *points) row(i int) []float64 {
	if p.dense != nil {
		return p.dense[i]
	}
	if p.at != i {
		for _, j := range p.cols {
			p.buf[j] = 0
		}
		vals, cols := p.m.RowView(i)
		for q, j := range cols {
			p.buf[j] = vals[q]
		}
		p.at, p.cols = i, cols
	}
	return p.buf
}

// WarmSeed builds k initial centroids from prev, the previous K's
// converged centroids, plus greedy farthest-point splits (Gonzalez):
// each extra centroid is the row of m farthest from the current set,
// the deterministic split that targets the region the previous
// clustering covered worst. Distances run through the norm identity on
// m where Lloyd would run the sparse kernel (O(nnz) per row instead of
// O(d); this only seeds, so the identity's rounding caveat is
// irrelevant), and densely elsewhere. Returned rows may share prev; a
// run clones them before iterating.
func WarmSeed(prev [][]float64, m *vec.CSRMatrix, k int) [][]float64 {
	if len(prev) >= k {
		return prev[:k]
	}
	pts := newPoints(m, nil)
	sparse := sparseRoute(m, Lloyd)
	cents := make([][]float64, len(prev), k)
	copy(cents, prev)
	dist := make([]float64, m.NumRows())

	// tighten lowers dist[i] to min(dist[i], ‖x_i − cent‖²).
	tighten := func(cent []float64) {
		cn := vec.Dot(cent, cent)
		for i := range dist {
			var d float64
			if sparse {
				vals, cols := m.RowView(i)
				d = m.RowNorm2(i) + cn - 2*vec.SparseDot(vals, cols, cent)
			} else {
				d = vec.SquaredEuclidean(pts.row(i), cent)
			}
			if d < dist[i] {
				dist[i] = d
			}
		}
	}
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for _, cent := range cents {
		tighten(cent)
	}
	for len(cents) < k {
		far, farD := 0, dist[0]
		for i, d := range dist {
			if d > farD {
				far, farD = i, d
			}
		}
		cents = append(cents, vec.Clone(pts.row(far)))
		tighten(cents[len(cents)-1])
	}
	return cents
}

// updateCentroids recomputes each centroid from the accumulated
// sums/counts and returns the largest centroid movement. An empty
// cluster is reseeded at the point currently farthest from its
// assigned centroid; the point is claimed immediately (its label,
// counts and sum contributions move to the repaired cluster) so that
// a second empty cluster repaired in the same iteration cannot pick
// the same farthest point. prev is a length-d buffer the movement is
// measured from.
func updateCentroids(pts *points, centroids [][]float64, labels []int, sums [][]float64, counts []int, prev []float64) float64 {
	moved := 0.0
	for c := range centroids {
		if counts[c] == 0 {
			far := farthestPoint(pts, centroids, labels)
			x := pts.row(far)
			delta := vec.Euclidean(centroids[c], x)
			copy(centroids[c], x)
			old := labels[far]
			labels[far] = c
			counts[c] = 1
			if old != c {
				counts[old]--
				for j, v := range x {
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
func farthestPoint(pts *points, centroids [][]float64, labels []int) int {
	best, bestD := 0, -1.0
	for i, c := range labels {
		if d := vec.SquaredEuclidean(pts.row(i), centroids[c]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// kmeansPPInit seeds centroids by D² sampling (Arthur & Vassilvitskii).
func kmeansPPInit(pts *points, n, k int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, 0, k)
	out = append(out, vec.Clone(pts.row(rng.Intn(n))))
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = vec.SquaredEuclidean(pts.row(i), out[0])
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
		out = append(out, vec.Clone(pts.row(next)))
		for i := range dist {
			if d := vec.SquaredEuclidean(pts.row(i), out[len(out)-1]); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return out
}
