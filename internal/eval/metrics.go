// Package eval implements the interestingness and quality metrics that
// drive ADA-HEALTH's data-analytics optimization: the overall
// similarity clustering index (the SSE comes with each K-means fit),
// classification metrics (accuracy, macro precision/recall/F1) with
// stratified k-fold cross-validation for the robustness assessment of
// cluster sets, and the purity/ARI/NMI agreement scores for comparing
// a clustering with reference labels.
package eval

import (
	"fmt"
)

// Confusion is a K×K confusion matrix; rows are true classes, columns
// predicted classes.
type Confusion struct {
	K int
	M [][]int
	n int
}

// NewConfusion returns an empty K-class confusion matrix.
func NewConfusion(k int) *Confusion {
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	return &Confusion{K: k, M: m}
}

// Add records one (true, predicted) observation.
func (c *Confusion) Add(truth, pred int) error {
	if truth < 0 || truth >= c.K || pred < 0 || pred >= c.K {
		return fmt.Errorf("eval: label out of range: truth=%d pred=%d K=%d", truth, pred, c.K)
	}
	c.M[truth][pred]++
	c.n++
	return nil
}

// Accuracy returns the fraction of correct predictions (0 when empty).
func (c *Confusion) Accuracy() float64 {
	if c.n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.K; i++ {
		correct += c.M[i][i]
	}
	return float64(correct) / float64(c.n)
}

// PrecisionPerClass returns precision for each class; classes never
// predicted get precision 0.
func (c *Confusion) PrecisionPerClass() []float64 {
	out := make([]float64, c.K)
	for j := 0; j < c.K; j++ {
		pred := 0
		for i := 0; i < c.K; i++ {
			pred += c.M[i][j]
		}
		if pred > 0 {
			out[j] = float64(c.M[j][j]) / float64(pred)
		}
	}
	return out
}

// RecallPerClass returns recall for each class; classes with no true
// instances get recall 0.
func (c *Confusion) RecallPerClass() []float64 {
	out := make([]float64, c.K)
	for i := 0; i < c.K; i++ {
		actual := 0
		for j := 0; j < c.K; j++ {
			actual += c.M[i][j]
		}
		if actual > 0 {
			out[i] = float64(c.M[i][i]) / float64(actual)
		}
	}
	return out
}

// MacroPrecision averages per-class precision over classes that occur
// (as truth or prediction); this is the "average precision" column of
// the paper's Table I.
func (c *Confusion) MacroPrecision() float64 {
	return macroAvg(c.PrecisionPerClass(), c.activeClasses())
}

// MacroRecall averages per-class recall ("average recall" in Table I).
func (c *Confusion) MacroRecall() float64 {
	return macroAvg(c.RecallPerClass(), c.activeClasses())
}

// MacroF1 averages the per-class harmonic means of precision and
// recall.
func (c *Confusion) MacroF1() float64 {
	p := c.PrecisionPerClass()
	r := c.RecallPerClass()
	f := make([]float64, c.K)
	for i := range f {
		if p[i]+r[i] > 0 {
			f[i] = 2 * p[i] * r[i] / (p[i] + r[i])
		}
	}
	return macroAvg(f, c.activeClasses())
}

// activeClasses marks classes that appear at least once as truth.
func (c *Confusion) activeClasses() []bool {
	active := make([]bool, c.K)
	for i := 0; i < c.K; i++ {
		for j := 0; j < c.K; j++ {
			if c.M[i][j] > 0 {
				active[i] = true
				break
			}
		}
	}
	return active
}

func macroAvg(vals []float64, active []bool) float64 {
	sum, n := 0.0, 0
	for i, v := range vals {
		if active[i] {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Metrics bundles the classification quality numbers reported in
// Table I of the paper.
type Metrics struct {
	Accuracy       float64 `json:"accuracy"`
	MacroPrecision float64 `json:"macro_precision"`
	MacroRecall    float64 `json:"macro_recall"`
	MacroF1        float64 `json:"macro_f1"`
}

// MetricsOf extracts the summary metrics from a confusion matrix.
func MetricsOf(c *Confusion) Metrics {
	return Metrics{
		Accuracy:       c.Accuracy(),
		MacroPrecision: c.MacroPrecision(),
		MacroRecall:    c.MacroRecall(),
		MacroF1:        c.MacroF1(),
	}
}
