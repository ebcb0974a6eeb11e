package classify

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// ForestOptions configures a random forest.
type ForestOptions struct {
	// NumTrees is the ensemble size; <= 0 means 20.
	NumTrees int
	// Tree bounds each member tree.
	Tree TreeOptions
	// FeatureFraction is the fraction of features considered per tree
	// (feature bagging); <= 0 means sqrt(d)/d.
	FeatureFraction float64
	// Seed drives bootstrap sampling and feature bagging.
	Seed int64
	// Parallelism bounds concurrent tree fits; <= 0 uses all cores
	// (runtime.GOMAXPROCS(0)), matching the cluster.Options /
	// optimize.SweepConfig convention.
	Parallelism int
}

// RandomForest is a bagged ensemble of CART trees with feature
// subsampling. It is the natural upgrade of the paper's single
// decision tree for the cluster-robustness assessment, offered as an
// ablation of that design choice.
//
// The forest implements SubsetFitter: in cross-validation every
// bootstrap fit filters its columns out of the one shared sparse
// ColumnOrder of the fold matrix instead of materializing and
// re-sorting a bootstrap copy, with the bootstrap multiset encoded as
// integer sample weights. The fitted ensemble is identical to the
// materialize-and-sort path.
type RandomForest struct {
	Opts ForestOptions

	trees    []*DecisionTree
	features [][]int // per-tree feature subset
	classes  int
}

// NewRandomForest returns an unfitted forest.
func NewRandomForest(opts ForestOptions) *RandomForest {
	return &RandomForest{Opts: opts}
}

// Fit implements Classifier.
func (f *RandomForest) Fit(X [][]float64, y []int) error {
	_, classes, err := validateXY(X, y)
	if err != nil {
		return err
	}
	ord, err := NewColumnOrder(X)
	if err != nil {
		return err
	}
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	return f.fitShared(ord, y, rows, classes)
}

// FitSubset implements SubsetFitter: it trains the forest on the rows
// subset of X, bootstrapping within the subset and reusing ord (built
// once per matrix, e.g. per cross-validation) for every tree.
func (f *RandomForest) FitSubset(X [][]float64, y []int, rows []int, ord *ColumnOrder) error {
	if ord == nil {
		var err error
		if ord, err = NewColumnOrder(X); err != nil {
			return err
		}
	}
	if err := checkOrderShape(ord, X); err != nil {
		return err
	}
	if len(y) != len(X) {
		return fmt.Errorf("classify: %d rows but %d labels", len(X), len(y))
	}
	if len(rows) == 0 {
		return fmt.Errorf("classify: empty training subset")
	}
	classes := 0
	for _, r := range rows {
		if r < 0 || r >= len(y) {
			return fmt.Errorf("classify: training row %d outside [0,%d)", r, len(y))
		}
		if y[r] < 0 {
			return fmt.Errorf("classify: negative label %d at row %d", y[r], r)
		}
		if y[r]+1 > classes {
			classes = y[r] + 1
		}
	}
	return f.fitShared(ord, y, rows, classes)
}

// fitShared grows the ensemble over the shared presorted view: per
// tree, a deterministic RNG draws the feature bag and a bootstrap
// sample of rows (with replacement, collapsed to multiplicities), and
// the tree is grown on the weighted rows over the bagged columns. It
// lives in the bag's feature space (node features index into the bag),
// exactly as if the sample had been materialized with projected
// columns and passed to Fit.
func (f *RandomForest) fitShared(ord *ColumnOrder, y []int, rows []int, classes int) error {
	opts := f.Opts
	if opts.NumTrees <= 0 {
		opts.NumTrees = 20
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	dim := ord.dim
	nFeatures := dim
	if opts.FeatureFraction > 0 {
		nFeatures = int(opts.FeatureFraction * float64(dim))
	} else {
		nFeatures = int(math.Ceil(math.Sqrt(float64(dim))))
	}
	if nFeatures < 1 {
		nFeatures = 1
	}
	if nFeatures > dim {
		nFeatures = dim
	}

	f.classes = classes
	f.trees = make([]*DecisionTree, opts.NumTrees)
	f.features = make([][]int, opts.NumTrees)

	// Deterministic per-tree seeds drawn up-front, so parallel
	// scheduling cannot change the model.
	seeds := make([]int64, opts.NumTrees)
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	// Parallelism grower buffers circulate among the tree fits: holding
	// one is the concurrency bound, and a member tree, which is never
	// refit, hands it on instead of keeping it.
	scratch := make(chan growState, opts.Parallelism)
	for i := 0; i < opts.Parallelism; i++ {
		scratch <- growState{}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for t := 0; t < opts.NumTrees; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			st := <-scratch
			defer func() { scratch <- st }()

			treeRng := rand.New(rand.NewSource(seeds[t]))
			// Feature bag.
			perm := treeRng.Perm(dim)[:nFeatures]
			f.features[t] = perm
			// Bootstrap sample over the training rows, collapsed to
			// per-row multiplicities (same RNG draws as materializing
			// the sample row by row, so models are unchanged).
			multiplicity := make([]int32, len(rows))
			for i := 0; i < len(rows); i++ {
				multiplicity[treeRng.Intn(len(rows))]++
			}
			bagRows := make([]int, 0, len(rows))
			bagWts := make([]int32, 0, len(rows))
			for li, w := range multiplicity {
				if w > 0 {
					bagRows = append(bagRows, rows[li])
					bagWts = append(bagWts, w)
				}
			}
			tree := NewDecisionTree(opts.Tree)
			tree.st = st
			err := tree.fit(ord, y, bagRows, bagWts, perm)
			st, tree.st = tree.st, growState{}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("classify: forest tree %d: %w", t, err)
				}
				mu.Unlock()
				return
			}
			f.trees[t] = tree
		}(t)
	}
	wg.Wait()
	return firstErr
}

// Predict implements Classifier by majority vote over the ensemble.
func (f *RandomForest) Predict(x []float64) int {
	if len(f.trees) == 0 {
		panic("classify: RandomForest.Predict before Fit")
	}
	votes := make([]int, f.classes)
	buf := make([]float64, 0, len(x))
	for t, tree := range f.trees {
		if tree == nil {
			continue
		}
		buf = buf[:0]
		for _, col := range f.features[t] {
			buf = append(buf, x[col])
		}
		votes[tree.Predict(buf)]++
	}
	best := 0
	for c, v := range votes {
		if v > votes[best] {
			best = c
		}
	}
	return best
}
