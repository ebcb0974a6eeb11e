package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"adahealth/internal/classify"
)

// KFold partitions indices 0..n-1 into k shuffled folds whose sizes
// differ by at most one.
func KFold(n, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: k-fold needs k >= 2, got %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("eval: %d samples cannot fill %d folds", n, k)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	return folds, nil
}

// StratifiedKFold partitions indices into k folds preserving the class
// proportions of y as closely as possible.
func StratifiedKFold(y []int, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: k-fold needs k >= 2, got %d", k)
	}
	if len(y) < k {
		return nil, fmt.Errorf("eval: %d samples cannot fill %d folds", len(y), k)
	}
	rng := rand.New(rand.NewSource(seed))
	// Bucket indices per class. Labels are small dense ints (cluster
	// ids), so slice buckets beat a map; negative labels fall back to
	// an overflow map to keep the old permissive behaviour. Classes
	// are processed in ascending label order (negatives first), the
	// same order the previous sorted-map implementation used, so the
	// folds are bit-for-bit unchanged.
	maxClass := -1
	for _, c := range y {
		if c > maxClass {
			maxClass = c
		}
	}
	var byClass [][]int
	if maxClass >= 0 {
		byClass = make([][]int, maxClass+1)
	}
	var negClasses []int
	byNeg := map[int][]int{}
	for i, c := range y {
		if c >= 0 {
			byClass[c] = append(byClass[c], i)
			continue
		}
		if _, seen := byNeg[c]; !seen {
			negClasses = append(negClasses, c)
		}
		byNeg[c] = append(byNeg[c], i)
	}
	sort.Ints(negClasses)
	folds := make([][]int, k)
	next := 0
	assign := func(idx []int) {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx {
			folds[next%k] = append(folds[next%k], i)
			next++
		}
	}
	for _, c := range negClasses {
		assign(byNeg[c])
	}
	for _, idx := range byClass {
		if len(idx) > 0 {
			assign(idx)
		}
	}
	return folds, nil
}

// CVResult aggregates cross-validation metrics: the pooled confusion
// matrix over all held-out folds plus the derived summary.
type CVResult struct {
	Folds     int
	Metrics   Metrics
	Confusion *Confusion
	PerFold   []Metrics
}

// CrossValidate trains factory-built classifiers on k-1 folds and
// evaluates on the held-out fold, pooling predictions into a single
// confusion matrix (the protocol of Section IV-B: "10-fold cross
// validation was used to evaluate the classification model").
// Stratified splitting keeps rare clusters represented in every fold.
func CrossValidate(factory classify.Factory, X [][]float64, y []int, k int, seed int64) (*CVResult, error) {
	return CrossValidateWithOrder(factory, X, y, k, seed, nil)
}

// CrossValidateWithOrder is CrossValidate with a caller-shared
// presorted column view of X (classify.NewColumnOrder), the reuse
// hook for sweeps that cross-validate many label vectors over one
// matrix: the presort depends only on X, so one build serves every K
// and every fold. A nil ord is built internally. ord must have been
// built from this exact X.
func CrossValidateWithOrder(factory classify.Factory, X [][]float64, y []int, k int, seed int64, ord *classify.ColumnOrder) (*CVResult, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("eval: %d rows but %d labels", len(X), len(y))
	}
	folds, err := StratifiedKFold(y, k, seed)
	if err != nil {
		return nil, err
	}
	classes := 0
	for _, c := range y {
		if c+1 > classes {
			classes = c + 1
		}
	}
	pooled := NewConfusion(classes)
	res := &CVResult{Folds: k}

	// One factory-built classifier serves all k folds: FitSubset fully
	// resets the model, and every fold trains against one shared
	// presorted view of X instead of re-sorting a materialized 90% copy.
	clf := factory()
	if ord == nil {
		if ord, err = classify.NewColumnOrder(X); err != nil {
			return nil, fmt.Errorf("eval: presorting: %w", err)
		}
	}
	inTest := make([]bool, len(X))
	trainRows := make([]int, 0, len(X))
	for f, test := range folds {
		for i := range inTest {
			inTest[i] = false
		}
		for _, i := range test {
			inTest[i] = true
		}
		trainRows = trainRows[:0]
		for i := range X {
			if !inTest[i] {
				trainRows = append(trainRows, i)
			}
		}
		if err := clf.FitSubset(X, y, trainRows, ord); err != nil {
			return nil, fmt.Errorf("eval: fold %d fit: %w", f, err)
		}
		foldConf := NewConfusion(classes)
		for _, i := range test {
			pred := clf.Predict(X[i])
			if pred < 0 || pred >= classes {
				pred = 0 // defensive: clamp stray predictions
			}
			if err := pooled.Add(y[i], pred); err != nil {
				return nil, err
			}
			if err := foldConf.Add(y[i], pred); err != nil {
				return nil, err
			}
		}
		res.PerFold = append(res.PerFold, MetricsOf(foldConf))
	}
	res.Confusion = pooled
	res.Metrics = MetricsOf(pooled)
	return res, nil
}
