// Package classify provides the supervised models ADA-HEALTH uses to
// assess clustering robustness (Section IV-A: a decision tree trained
// on the cluster labels) and to predict end-goal interestingness from
// past user feedback. All models implement the Classifier interface:
// rows of float features in, integer class labels 0..K-1 out.
//
// The interface takes dense rows, but the matrices this system trains
// on — patients by exam types — are mostly zeros, and the decision
// tree (and the forest built from it) is grown from a sparse view of
// them: ColumnOrder keeps each feature's non-zero cells sorted by
// value with the zeros an implicit block, and a fit scans and
// partitions only those cells. A column's zeros all tie at one value,
// so the tree grown this way is, to the bit, the tree a dense CART
// grows; tree.go documents the layout, and the tests hold the grower
// to a naive reference CART that shares no code with it.
package classify

import (
	"fmt"
)

// Classifier is a supervised model over rows of float features.
type Classifier interface {
	// Fit trains on rows X with labels y (one label per row, in
	// 0..K-1). Implementations must not retain X or y after Fit
	// returns unless documented.
	Fit(X [][]float64, y []int) error
	// Predict returns the class for one feature vector. It panics if
	// called before a successful Fit.
	Predict(x []float64) int
}

// Factory builds a fresh, unfitted classifier; cross-validation uses
// it to train one model per fold.
type Factory func() Classifier

// validateXY checks the common preconditions of Fit implementations
// and returns the feature dimension and the number of classes.
func validateXY(X [][]float64, y []int) (dim, classes int, err error) {
	if len(X) == 0 {
		return 0, 0, fmt.Errorf("classify: no training rows")
	}
	if len(X) != len(y) {
		return 0, 0, fmt.Errorf("classify: %d rows but %d labels", len(X), len(y))
	}
	dim = len(X[0])
	if dim == 0 {
		return 0, 0, fmt.Errorf("classify: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != dim {
			return 0, 0, fmt.Errorf("classify: row %d has dimension %d, want %d", i, len(row), dim)
		}
	}
	for i, label := range y {
		if label < 0 {
			return 0, 0, fmt.Errorf("classify: negative label %d at row %d", label, i)
		}
		if label+1 > classes {
			classes = label + 1
		}
	}
	return dim, classes, nil
}

// Majority is the baseline classifier that always predicts the most
// frequent training class.
type Majority struct {
	class  int
	fitted bool
}

// NewMajority returns an unfitted majority-class baseline.
func NewMajority() *Majority { return &Majority{} }

// Fit implements Classifier.
func (m *Majority) Fit(X [][]float64, y []int) error {
	_, classes, err := validateXY(X, y)
	if err != nil {
		return err
	}
	counts := make([]int, classes)
	for _, label := range y {
		counts[label]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	m.class = best
	m.fitted = true
	return nil
}

// Predict implements Classifier.
func (m *Majority) Predict(x []float64) int {
	if !m.fitted {
		panic("classify: Majority.Predict before Fit")
	}
	return m.class
}
