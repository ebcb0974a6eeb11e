package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"adahealth/internal/classify"
	"adahealth/internal/vec"
)

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
}

// CrossValidate trains factory-built classifiers on k-1 folds and
// evaluates on the held-out fold, pooling predictions into a single
// confusion matrix (the protocol of Section IV-B: "10-fold cross
// validation was used to evaluate the classification model").
// Stratified splitting keeps rare clusters represented in every fold.
func CrossValidate(factory classify.Factory, X *vec.CSRMatrix, y []int, k int, seed int64) (*CVResult, error) {
	return CrossValidateWithOrder(factory, X, y, k, seed, nil)
}

// CrossValidateWithOrder is CrossValidate with a caller-shared
// presorted column view of X (classify.NewColumnOrder), the reuse
// hook for sweeps that cross-validate many label vectors over one
// matrix: the presort depends only on X, so one build serves every K
// and every fold. A nil ord is built internally. ord must have been
// built from this exact X. A held-out row is predicted from a dense
// scratch row it is scattered into.
func CrossValidateWithOrder(factory classify.Factory, X *vec.CSRMatrix, y []int, k int, seed int64, ord *classify.ColumnOrder) (*CVResult, error) {
	n := X.NumRows()
	if n != len(y) {
		return nil, fmt.Errorf("eval: %d rows but %d labels", n, len(y))
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
	inTest := make([]bool, n)
	trainRows := make([]int, 0, n)
	row := make([]float64, X.NumCols())
	for f, test := range folds {
		for i := range inTest {
			inTest[i] = false
		}
		for _, i := range test {
			inTest[i] = true
		}
		trainRows = trainRows[:0]
		for i := range n {
			if !inTest[i] {
				trainRows = append(trainRows, i)
			}
		}
		if err := clf.FitSubset(X, y, trainRows, ord); err != nil {
			return nil, fmt.Errorf("eval: fold %d fit: %w", f, err)
		}
		for _, i := range test {
			vals, cols := X.RowView(i)
			vec.ScatterAdd(row, vals, cols)
			pred := clf.Predict(row)
			for _, j := range cols {
				row[j] = 0
			}
			if pred < 0 || pred >= classes {
				pred = 0 // defensive: clamp stray predictions
			}
			if err := pooled.Add(y[i], pred); err != nil {
				return nil, err
			}
		}
	}
	res.Confusion = pooled
	res.Metrics = MetricsOf(pooled)
	return res, nil
}
