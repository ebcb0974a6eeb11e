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
// The sweep is warm-started: the K values are clustered serially in
// ascending order, the smallest K seeded by k-means++ under KSeed (or
// by recalled prior centroids) and every later K from the previous K's
// converged centroids plus farthest-point splits for the extra
// centers. The chain owns one cluster.Scratch and one rand.Rand reused
// across every run, so it is nearly allocation-free. Each K's robustness
// assessment is one unit of work handed to a slots.Group as soon as its
// clustering completes: the unit runs on a helper when the CPU budget
// (SweepConfig.Budget — the daemon's stage pool — or a private pool of
// Parallelism slots) has an idle slot right now, and otherwise on the
// sweep's own goroutine once the chain is done. So CV of K=6 overlaps
// clustering of K=7 on an idle machine, and a loaded one runs no extra
// goroutine. Each unit writes only its own row, so the rows are
// deterministic for every budget.
//
// Every CV unit borrows one reusable decision tree from the arena
// (refit per fold — its grower buffers persist), and all units share a
// single classify.ColumnOrder of the data — the sparse presorted view
// the tree is grown from. It depends only on the feature matrix and is
// never written after it is built, so one build serves every fold of
// every K on every goroutine.
package optimize

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"adahealth/internal/classify"
	"adahealth/internal/cluster"
	"adahealth/internal/eval"
	"adahealth/internal/slots"
	"adahealth/internal/vec"
	"adahealth/internal/vsm"
)

// KSeed derives the per-K clustering seed from the sweep seed. It is
// the one seed formula shared by the warm-started chain (the smallest
// K's k-means++ run and the rand reseeding of every run) and the
// pipeline's final clustering stage — so a sweep's selected K
// re-clusters under exactly the seed the sweep evaluated it with.
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
	// Parallelism sizes the private CPU budget a sweep without Budget
	// runs its robustness assessments on; <= 0 uses all cores
	// (runtime.GOMAXPROCS(0)). This budget stands in for the paper's
	// "online cloud-based services for automatic configuration of data
	// analytics".
	Parallelism int
	// Budget, when non-nil, is the CPU budget shared with the rest of
	// the caller (the pipeline's stage pool): the sweep, which already
	// holds one of its slots, borrows idle ones for its assessments and
	// keeps the K-means kernel serial. Results are identical for every
	// budget.
	Budget slots.Pool `json:"-"`

	// SeedCentroids, when non-nil, seed the warm-started chain's first
	// (smallest) K instead of k-means++: the K-DB recall stage passes
	// prior converged centroids of a statistically similar dataset
	// here, remapped onto this sweep's feature space. Fewer than K rows
	// are completed by farthest-point splits, more are truncated. Nil
	// (the default) leaves the sweep bit-for-bit identical to a cold
	// run. Rows must match the data's dimensionality.
	SeedCentroids [][]float64

	// Arena, when non-nil, lends the sweep its worker state (the CV
	// workers' decision trees, the chain's cluster scratch and RNG)
	// instead of allocating fresh ones — the cross-job reuse hook for
	// long-lived services. Results are bit-for-bit identical with or
	// without it; see Arena.
	Arena *Arena `json:"-"`

	// csr, when non-nil, is a shared sparse view of the data rows (set
	// by SweepMatrix, or built internally when the data is sparse
	// enough): every K's clustering then routes through the sparse
	// K-means kernel against one CSR build.
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

// Validate rejects a K grid value below 2; the zero value (the default
// grid) passes. Whether each K fits the data is Sweep's check, because
// it depends on the rows.
func (c SweepConfig) Validate() error {
	for _, k := range c.Ks {
		if k < 2 {
			return fmt.Errorf("optimize: K=%d below 2", k)
		}
	}
	return nil
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, k := range cfg.Ks {
		if k > len(data) {
			return nil, fmt.Errorf("optimize: K=%d exceeds %d rows", k, len(data))
		}
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

	rows, crs := sweepWarm(ctx, data, cfg, ord)

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

// assess scores one fitted clustering: SSE, overall similarity, and
// the decision-tree robustness assessment under CVFolds-fold CV, on a
// tree borrowed from cfg.Arena (refit per fold; its grower buffers
// survive refits).
func assess(ctx context.Context, data [][]float64, cfg SweepConfig, ord *classify.ColumnOrder, k int, cr *cluster.Result) KResult {
	out := KResult{K: k, SSE: cr.SSE, Iterations: cr.Iterations}
	if err := ctx.Err(); err != nil {
		out.Err = err.Error()
		return out
	}
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
	slab := cfg.Arena.tree(cfg.Tree)
	defer cfg.Arena.putTree(slab)
	tree := func() classify.Classifier { return slab.tree }
	cv, err := eval.CrossValidateWithOrder(tree, data, cr.Labels, cfg.CVFolds, cfg.Seed+int64(k), ord)
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

// sweepWarm clusters the Ks serially in ascending order, warm-seeding
// each from the previous converged centroids, and hands every finished
// clustering's robustness assessment to a slots.Group as one unit: the
// clustering chain and the CV of earlier Ks overlap on whatever slots of
// the budget are idle, and the chain's goroutine runs what is left.
func sweepWarm(ctx context.Context, data [][]float64, cfg SweepConfig, ord *classify.ColumnOrder) ([]KResult, []*cluster.Result) {
	rows := make([]KResult, len(cfg.Ks))
	crs := make([]*cluster.Result, len(cfg.Ks))
	order := make([]int, len(cfg.Ks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cfg.Ks[order[a]] < cfg.Ks[order[b]] })

	if cfg.Arena == nil {
		// A sweep-local arena: the CV units share their trees.
		cfg.Arena = NewArena()
	}
	// The clustering chain owns its own state (serial by construction:
	// K+1 needs K's centroids). Its generator is reseeded by every run
	// (cluster.run calls Rand.Seed(KSeed(...))), so the per-K stream is
	// that of a fresh rand.New(rand.NewSource(KSeed(...))) — which is
	// also why an arena's generator can carry over between sweeps.
	chain := cfg.Arena.chain()
	defer cfg.Arena.putChain(chain)

	budget := cfg.Budget
	if budget == nil {
		budget = slots.New(cfg.Parallelism)
	}
	cv := slots.NewGroup(budget)
	// Deferred, so no CV helper outlives the sweep even if the chain
	// panics; each unit writes only its own row.
	defer cv.Wait()

	opts := cfg.Cluster
	opts.Scratch, opts.Rand = chain.scratch, chain.rng
	if opts.Parallelism == 0 && (cfg.Budget != nil || cfg.Parallelism > 1) {
		// The CV units already fill the budget's cores; keep the kernel
		// serial unless explicitly configured, instead of GOMAXPROCS²
		// goroutines contending through per-iteration barriers. Results
		// are identical for any worker count, so this is purely a
		// scheduling choice.
		opts.Parallelism = 1
	}
	// SeedCentroids, when the recall stage supplied prior knowledge,
	// stand in as the "previous K" for the smallest K of the chain;
	// otherwise it seeds k-means++ exactly as a cold sweep does.
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
		opts.K, opts.Seed, opts.InitialCentroids = k, KSeed(cfg.Seed, k), nil
		if prev != nil {
			opts.InitialCentroids = warmSeed(prev, data, cfg.csr, k)
		}
		cr, err := cluster.KMeansCSRContext(ctx, cfg.csr, data, opts)
		if err != nil {
			// Later Ks would warm-seed from this failed run; mark the
			// rest of the chain instead of silently skipping them.
			chainErr = err
			rows[i] = KResult{K: k, Err: err.Error()}
			continue
		}
		prev = cr.Centroids
		crs[i] = cr
		cv.Go(func() { rows[i] = assess(ctx, data, cfg, ord, k, cr) })
	}
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
