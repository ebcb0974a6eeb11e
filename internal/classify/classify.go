// Package classify provides the supervised model ADA-HEALTH uses to
// assess clustering robustness (Section IV-A: a decision tree trained
// on the cluster labels, cross-validated) and to predict end-goal
// interestingness from past user feedback: a CART decision tree, the
// one implementation of Classifier.
//
// The interface trains on CSR matrices, because the matrices this
// system trains on — patients by exam types — are mostly zeros, and
// the tree is grown from a sparse view of them: ColumnOrder keeps each
// feature's non-zero cells sorted by value with the zeros an implicit
// block, and a fit scans and partitions only those cells. A column's
// zeros all tie at one value, so the tree grown this way is, to the
// bit, the tree a dense CART grows; tree.go documents the layout, and
// the tests hold the grower to a naive reference CART that shares no
// code with it.
package classify

import "adahealth/internal/vec"

// Classifier is a supervised model over rows of float features: a
// CSR matrix of rows in, integer class labels 0..K-1 out.
type Classifier interface {
	// Fit trains on rows X with labels y (one label per row, in
	// 0..K-1). Implementations must not retain X or y after Fit
	// returns unless documented.
	Fit(X *vec.CSRMatrix, y []int) error
	// FitSubset trains on the rows subset of X with a shared presorted
	// view of it — the cross-validation fast path (see
	// DecisionTree.FitSubset).
	FitSubset(X *vec.CSRMatrix, y []int, rows []int, ord *ColumnOrder) error
	// Predict returns the class for one feature vector. It panics if
	// called before a successful Fit.
	Predict(x []float64) int
}

// Factory builds a fresh, unfitted classifier; cross-validation uses
// it to train the folds.
type Factory func() Classifier
