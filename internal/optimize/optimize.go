// Package optimize implements ADA-HEALTH's algorithm-optimization
// component (Section IV-A): given a dataset and a center-based
// clustering algorithm, it runs the mining activity over a grid of
// parameters (the number of clusters K), scores every run with a
// combination of a traditional quality index (SSE) and a
// classification-based robustness assessment (a decision tree trained
// to re-predict the cluster labels, evaluated by 10-fold cross
// validation), and automatically selects the configuration with the
// best overall classification results — reproducing Table I.
//
// # Sweep execution
//
// Two sweep strategies share one assessment path:
//
//   - Warm-started (the default, SweepConfig.WarmStart == WarmStartOn):
//     the K values are clustered serially in ascending order, each K
//     seeded from the previous K's converged centroids plus
//     farthest-point splits for the extra centers, with one
//     cluster.Scratch reused across every run (labels, sums, bounds,
//     kd-tree) so the chain is nearly allocation-free. The expensive
//     robustness assessments fan out over a worker pool as each
//     clustering completes, so CV of K=6 overlaps clustering of K=7.
//   - Legacy (WarmStartOff): every K is seeded independently
//     (k-means++ under its own derived seed) and evaluated on the
//     worker pool, exactly as before warm starting existed; rows are
//     bit-for-bit identical to the historical output.
//
// Warm starting changes the seeding, and therefore the per-K local
// optimum the classifier re-predicts — the rows are not comparable
// bit-for-bit between the two modes, only statistically. Both modes
// derive the per-K clustering seed with KSeed, score identically, and
// are deterministic for every Parallelism value.
//
// Every worker owns one reusable decision tree (refit per fold — its
// grower buffers persist), one rand.Rand reseeded per K, and (in
// legacy mode) one cluster.Scratch, and all workers share a single
// classify.ColumnOrder of the data — the sparse presorted view the
// tree is grown from. It depends only on the feature matrix and is
// never written after it is built, so one build serves every fold of
// every K on every worker.
package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"adahealth/internal/classify"
	"adahealth/internal/cluster"
	"adahealth/internal/eval"
	"adahealth/internal/vec"
	"adahealth/internal/vsm"
)

// WarmStart selects the sweep's seeding strategy. The zero value is
// WarmStartOn: K values are evaluated in ascending order and each
// clustering is seeded from the previous one.
type WarmStart int

const (
	// WarmStartOn evaluates K ascending, seeding K's centroids from
	// the previous K's converged centroids plus farthest-point splits.
	WarmStartOn WarmStart = iota
	// WarmStartOff seeds every K independently (k-means++ under the
	// KSeed-derived seed) — the legacy pre-warm-start behaviour,
	// preserved bit-for-bit.
	WarmStartOff
)

func (w WarmStart) String() string {
	switch w {
	case WarmStartOn:
		return "on"
	case WarmStartOff:
		return "off"
	default:
		return fmt.Sprintf("WarmStart(%d)", int(w))
	}
}

// Valid reports whether w is a known mode.
func (w WarmStart) Valid() bool { return w == WarmStartOn || w == WarmStartOff }

// KSeed derives the per-K clustering seed from the sweep seed. It is
// the one seed formula shared by the legacy independent-seeding path,
// the warm-started path (which uses it for the smallest K's k-means++
// run and for per-worker rand reseeding), and the pipeline's final
// clustering stage — so a sweep's selected K re-clusters under
// exactly the seed the sweep evaluated it with.
func KSeed(seed int64, k int) int64 { return seed + int64(k)*7919 }

// SweepConfig configures a parameter sweep.
type SweepConfig struct {
	// Ks is the grid of cluster counts; defaults to Table I's
	// {6, 7, 8, 9, 10, 12, 15, 20}.
	Ks []int
	// CVFolds is the cross-validation fold count; default 10.
	CVFolds int
	// Seed drives clustering seeding and fold shuffling.
	Seed int64
	// Cluster carries the K-means options (K/Seed overridden per run).
	Cluster cluster.Options
	// Tree configures the robustness-assessment decision tree.
	Tree classify.TreeOptions
	// Parallelism bounds concurrent K evaluations (legacy mode) or
	// concurrent robustness assessments (warm-started mode); <= 0 uses
	// all cores (runtime.GOMAXPROCS(0)). This worker pool stands in
	// for the paper's "online cloud-based services for automatic
	// configuration of data analytics".
	Parallelism int
	// WarmStart selects the seeding strategy; the zero value warms
	// each K from the previous one (see the package comment).
	WarmStart WarmStart

	// SeedCentroids, when non-nil, seed the warm-started chain's first
	// (smallest) K instead of k-means++: the K-DB recall stage passes
	// prior converged centroids of a statistically similar dataset
	// here, remapped onto this sweep's feature space. Fewer than K rows
	// are completed by farthest-point splits, more are truncated. Nil
	// (the default, and always in WarmStartOff mode) leaves the sweep
	// bit-for-bit identical to a cold run. Rows must match the data's
	// dimensionality.
	SeedCentroids [][]float64

	// Arena, when non-nil, lends the sweep its worker slabs (decision
	// tree, cluster scratch, RNG) instead of allocating fresh ones —
	// the cross-job reuse hook for long-lived services. Results are
	// bit-for-bit identical with or without it; see Arena.
	Arena *Arena `json:"-"`

	// csr, when non-nil, is a shared sparse view of the data rows (set
	// by SweepMatrix, or built internally when the data is sparse
	// enough): every K evaluation then routes through the sparse-aware
	// K-means kernels against one CSR build.
	csr *vec.CSRMatrix
}

// DefaultKs returns a fresh copy of the default K grid (Table I's
// {6, 7, 8, 9, 10, 12, 15, 20}) — the grid an empty SweepConfig.Ks
// selects, exported so callers that specialize the grid (the recall
// stage's narrowing) compose with the default the same way the sweep
// itself does.
func DefaultKs() []int { return []int{6, 7, 8, 9, 10, 12, 15, 20} }

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Ks) == 0 {
		c.Ks = DefaultKs()
	}
	if c.CVFolds <= 0 {
		c.CVFolds = 10
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// KResult is one row of Table I: the quality indexes for one K.
type KResult struct {
	K          int     `json:"k"`
	SSE        float64 `json:"sse"`
	Accuracy   float64 `json:"accuracy"`
	Precision  float64 `json:"avg_precision"` // macro average
	Recall     float64 `json:"avg_recall"`    // macro average
	F1         float64 `json:"macro_f1"`
	Similarity float64 `json:"overall_similarity"`
	// Combined is the selection score: the mean of accuracy, average
	// precision and average recall ("best overall classification
	// results", Section IV-B).
	Combined float64 `json:"combined"`
	// Iterations is the Lloyd-iteration count of this K's clustering —
	// the recall stage's warm-start evidence (a seeded chain converges
	// in fewer iterations than a cold one).
	Iterations int    `json:"iterations,omitempty"`
	Err        string `json:"error,omitempty"`
}

// SweepResult is the full optimization outcome.
type SweepResult struct {
	Rows []KResult `json:"rows"`
	// BestK is the automatically selected number of clusters.
	BestK int `json:"best_k"`
	// ElbowK is the SSE-elbow estimate (largest second difference),
	// reported for diagnostics; selection uses classification metrics.
	ElbowK int `json:"elbow_k"`
	// BestClustering is the fitted model the BestK row was scored on.
	// Under warm starting the BestK model is a product of the whole
	// ascending chain, not of an independent seeding, so callers that
	// need "the selected clustering" (the pipeline's cluster stage)
	// must take it from here rather than re-clustering.
	BestClustering *cluster.Result `json:"-"`
}

// Best returns the row for BestK.
func (s *SweepResult) Best() KResult {
	for _, r := range s.Rows {
		if r.K == s.BestK {
			return r
		}
	}
	return KResult{}
}

// Sweep evaluates every K on data (rows are the same features the
// clustering consumes; the classifier is trained on them with the
// cluster labels as target, exactly as in Section IV-A). The context
// is checked between clustering iterations and between evaluation
// phases, so a cancelled sweep returns ctx.Err() promptly instead of
// finishing the grid.
func Sweep(ctx context.Context, data [][]float64, cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("optimize: no data")
	}
	for _, k := range cfg.Ks {
		if k < 2 {
			return nil, fmt.Errorf("optimize: K=%d below 2", k)
		}
		if k > len(data) {
			return nil, fmt.Errorf("optimize: K=%d exceeds %d rows", k, len(data))
		}
	}
	if !cfg.WarmStart.Valid() {
		return nil, fmt.Errorf("optimize: unknown WarmStart mode %d", cfg.WarmStart)
	}

	if cfg.csr == nil {
		// Compress once and share across every K evaluation when the
		// data is sparse enough for the sparse kernels to pay.
		cfg.csr = cluster.AutoCSR(data)
	}

	// One presorted column view serves every fold of every K.
	ord, err := classify.NewColumnOrder(data)
	if err != nil {
		return nil, fmt.Errorf("optimize: presorting features: %w", err)
	}

	var (
		rows []KResult
		crs  []*cluster.Result
	)
	if cfg.WarmStart == WarmStartOn {
		rows, crs = sweepWarm(ctx, data, cfg, ord)
	} else {
		rows, crs = sweepLegacy(ctx, data, cfg, ord)
	}

	// A cancelled context outranks per-row errors: return it unwrapped
	// so callers can match with errors.Is.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r.Err != "" {
			return nil, fmt.Errorf("optimize: K=%d: %s", r.K, r.Err)
		}
	}
	res := &SweepResult{Rows: rows}
	res.BestK = selectBestK(rows)
	res.ElbowK = elbowK(rows)
	for i, r := range rows {
		if r.K == res.BestK {
			res.BestClustering = crs[i]
			break
		}
	}
	return res, nil
}

// SweepMatrix is Sweep over a VSM matrix, reusing the matrix's cached
// sparse view (built at most once per matrix) when the sparse kernels
// are expected to pay.
func SweepMatrix(ctx context.Context, m *vsm.Matrix, cfg SweepConfig) (*SweepResult, error) {
	// Probe density on the dense rows first so a dense matrix never
	// materializes (and permanently caches) a CSR view it won't use.
	if cfg.csr == nil && m.NumRows() > 0 &&
		cluster.SparseProfitable(m.NumRows(), m.NumFeatures(), vec.Density(m.Rows)) {
		cfg.csr = m.Sparse()
	}
	return Sweep(ctx, m.Rows, cfg)
}

// sweepWorker is the reusable per-worker state of a sweep: one
// decision tree whose fit buffers survive refits, one cluster scratch
// (legacy mode clusters on the workers), and the hoisted cluster
// options so they are not rebuilt per K.
type sweepWorker struct {
	cfg     SweepConfig
	ord     *classify.ColumnOrder
	tree    *classify.DecisionTree
	scratch *cluster.Scratch
	opts    cluster.Options
	slab    *workerSlab // non-nil iff checked out of cfg.Arena
}

func newSweepWorker(cfg SweepConfig, ord *classify.ColumnOrder) *sweepWorker {
	w := &sweepWorker{cfg: cfg, ord: ord, opts: cfg.Cluster}
	if cfg.Arena != nil {
		w.slab = cfg.Arena.acquire(cfg.Tree)
		w.tree = w.slab.tree
		w.scratch = w.slab.scratch
		w.opts.Rand = w.slab.rng
	} else {
		w.tree = classify.NewDecisionTree(cfg.Tree)
		w.scratch = &cluster.Scratch{}
		// One generator per worker, reseeded by the run (cluster.run
		// calls Rand.Seed(KSeed(...))) — the per-K stream is identical
		// to a freshly constructed rand.New(rand.NewSource(KSeed(...))),
		// which is also why an arena slab's generator can carry over.
		w.opts.Rand = rand.New(rand.NewSource(0))
	}
	if w.opts.Parallelism == 0 && cfg.Parallelism > 1 {
		// The sweep pool already saturates the cores with concurrent
		// evaluations; keep each kernel serial unless explicitly
		// configured, instead of GOMAXPROCS² goroutines contending
		// through per-iteration barriers. Results are identical for
		// any worker count, so this is purely a scheduling choice.
		w.opts.Parallelism = 1
	}
	w.opts.Scratch = w.scratch
	return w
}

// factory returns the worker's reusable tree; eval.CrossValidate
// refits it per fold (FitSubset fully resets the model).
func (w *sweepWorker) factory() classify.Classifier { return w.tree }

// close returns the worker's slab to the arena it came from.
func (w *sweepWorker) close() {
	if w.slab != nil {
		w.cfg.Arena.release(w.slab)
		w.slab = nil
	}
}

// clusterK runs the clustering of one K under the worker's scratch.
func (w *sweepWorker) clusterK(ctx context.Context, data [][]float64, k int, initial [][]float64) (*cluster.Result, error) {
	opts := w.opts
	opts.K = k
	opts.Seed = KSeed(w.cfg.Seed, k)
	opts.InitialCentroids = initial
	return cluster.KMeansCSRContext(ctx, w.cfg.csr, data, opts)
}

// assess scores one fitted clustering: SSE, overall similarity, and
// the decision-tree robustness assessment under CVFolds-fold CV.
func (w *sweepWorker) assess(ctx context.Context, data [][]float64, k int, cr *cluster.Result) KResult {
	out := KResult{K: k, SSE: cr.SSE, Iterations: cr.Iterations}

	os, err := eval.OverallSimilarity(data, cr.Labels, cr.K)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Similarity = os

	if err := ctx.Err(); err != nil {
		out.Err = err.Error()
		return out
	}
	cv, err := eval.CrossValidateWithOrder(w.factory, data, cr.Labels, w.cfg.CVFolds, w.cfg.Seed+int64(k), w.ord)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Accuracy = cv.Metrics.Accuracy
	out.Precision = cv.Metrics.MacroPrecision
	out.Recall = cv.Metrics.MacroRecall
	out.F1 = cv.Metrics.MacroF1
	out.Combined = (out.Accuracy + out.Precision + out.Recall) / 3
	return out
}

// evaluateK runs one independent clustering + robustness assessment —
// the legacy sweep's unit of work.
func (w *sweepWorker) evaluateK(ctx context.Context, data [][]float64, k int) (KResult, *cluster.Result) {
	cr, err := w.clusterK(ctx, data, k, nil)
	if err != nil {
		return KResult{K: k, Err: err.Error()}, nil
	}
	return w.assess(ctx, data, k, cr), cr
}

// sweepLegacy evaluates every K independently on a bounded worker
// pool; each worker reuses one tree/scratch across the Ks it takes.
func sweepLegacy(ctx context.Context, data [][]float64, cfg SweepConfig, ord *classify.ColumnOrder) ([]KResult, []*cluster.Result) {
	rows := make([]KResult, len(cfg.Ks))
	crs := make([]*cluster.Result, len(cfg.Ks))
	workers := cfg.Parallelism
	if workers > len(cfg.Ks) {
		workers = len(cfg.Ks)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newSweepWorker(cfg, ord)
			defer w.close()
			for i := range idxCh {
				k := cfg.Ks[i]
				if err := ctx.Err(); err != nil {
					rows[i] = KResult{K: k, Err: err.Error()}
					continue
				}
				rows[i], crs[i] = w.evaluateK(ctx, data, k)
			}
		}()
	}
	for i := range cfg.Ks {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return rows, crs
}

// sweepWarm clusters the Ks serially in ascending order, warm-seeding
// each from the previous converged centroids, while the robustness
// assessments fan out over the worker pool — the clustering chain and
// the CV of earlier Ks overlap.
func sweepWarm(ctx context.Context, data [][]float64, cfg SweepConfig, ord *classify.ColumnOrder) ([]KResult, []*cluster.Result) {
	rows := make([]KResult, len(cfg.Ks))
	crs := make([]*cluster.Result, len(cfg.Ks))
	order := make([]int, len(cfg.Ks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cfg.Ks[order[a]] < cfg.Ks[order[b]] })

	type cvJob struct {
		i, k int
		cr   *cluster.Result
	}
	jobs := make(chan cvJob, len(cfg.Ks))
	var wg sync.WaitGroup
	workers := cfg.Parallelism
	if workers > len(cfg.Ks) {
		workers = len(cfg.Ks)
	}
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newSweepWorker(cfg, ord)
			defer w.close()
			for j := range jobs {
				if err := ctx.Err(); err != nil {
					rows[j.i] = KResult{K: j.k, Err: err.Error()}
					continue
				}
				rows[j.i] = w.assess(ctx, data, j.k, j.cr)
			}
		}()
	}

	// The clustering chain owns its own worker state (serial by
	// construction: K+1 needs K's centroids). SeedCentroids, when the
	// recall stage supplied prior knowledge, stand in as the "previous
	// K" for the smallest K of the chain; otherwise it seeds k-means++
	// exactly as a cold sweep does.
	cw := newSweepWorker(cfg, ord)
	defer cw.close()
	prev := cfg.SeedCentroids
	var chainErr error
	for _, i := range order {
		k := cfg.Ks[i]
		if chainErr != nil {
			rows[i] = KResult{K: k, Err: chainErr.Error()}
			continue
		}
		if err := ctx.Err(); err != nil {
			rows[i] = KResult{K: k, Err: err.Error()}
			continue
		}
		var initial [][]float64
		if prev != nil {
			initial = warmSeed(prev, data, cfg.csr, k)
		}
		cr, err := cw.clusterK(ctx, data, k, initial)
		if err != nil {
			// Later Ks would warm-seed from this failed run; mark the
			// rest of the chain instead of silently skipping them.
			chainErr = err
			rows[i] = KResult{K: k, Err: err.Error()}
			continue
		}
		prev = cr.Centroids
		crs[i] = cr
		jobs <- cvJob{i: i, k: k, cr: cr}
	}
	close(jobs)
	wg.Wait()
	return rows, crs
}

// warmSeed builds k initial centroids from the previous K's converged
// centroids plus greedy farthest-point splits (Gonzalez): each extra
// centroid is the data point farthest from the current set, the
// deterministic split that targets the region the previous clustering
// covered worst. Distances run through the shared CSR view when one
// exists (O(nnz) per row instead of O(d)); this only seeds, so the
// identity's rounding caveat is irrelevant. Returned rows reference
// prev/data; the clustering run clones them before iterating.
func warmSeed(prev [][]float64, data [][]float64, csr *vec.CSRMatrix, k int) [][]float64 {
	if len(prev) >= k {
		return prev[:k]
	}
	cents := make([][]float64, len(prev), k)
	copy(cents, prev)
	dist := make([]float64, len(data))

	// tighten lowers dist[i] to min(dist[i], ‖x_i − cent‖²).
	tighten := func(cent []float64) {
		if csr != nil {
			cn := vec.Dot(cent, cent)
			for i := range dist {
				vals, cols := csr.RowView(i)
				if d := csr.RowNorm2(i) + cn - 2*vec.SparseDot(vals, cols, cent); d < dist[i] {
					dist[i] = d
				}
			}
			return
		}
		for i, x := range data {
			if d := vec.SquaredEuclidean(x, cent); d < dist[i] {
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
		cents = append(cents, data[far])
		tighten(data[far])
	}
	return cents
}

// selectBestK picks the K with the best overall classification
// results: highest combined score, ties broken toward smaller K
// (medical applications prefer few, significant clusters; §IV-A).
func selectBestK(rows []KResult) int {
	best := rows[0]
	for _, r := range rows[1:] {
		if r.Combined > best.Combined ||
			(r.Combined == best.Combined && r.K < best.K) {
			best = r
		}
	}
	return best.K
}

// elbowK estimates the knee of the SSE curve as the K with the largest
// positive second difference of SSE over the (sorted) K grid.
func elbowK(rows []KResult) int {
	sorted := append([]KResult(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
	if len(sorted) < 3 {
		return sorted[0].K
	}
	bestK, bestCurv := sorted[1].K, 0.0
	for i := 1; i < len(sorted)-1; i++ {
		// Normalize by the K spacing, which is non-uniform in Table I.
		dk1 := float64(sorted[i].K - sorted[i-1].K)
		dk2 := float64(sorted[i+1].K - sorted[i].K)
		slope1 := (sorted[i].SSE - sorted[i-1].SSE) / dk1
		slope2 := (sorted[i+1].SSE - sorted[i].SSE) / dk2
		curv := slope2 - slope1
		if curv > bestCurv {
			bestCurv, bestK = curv, sorted[i].K
		}
	}
	return bestK
}
