package eval

import (
	"math/rand"
	"testing"

	"adahealth/internal/classify"
)

func TestStratifiedKFoldPreservesProportions(t *testing.T) {
	// 80/20 class balance across 10 folds of 10.
	y := make([]int, 100)
	for i := 80; i < 100; i++ {
		y[i] = 1
	}
	folds, err := StratifiedKFold(y, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range folds {
		ones := 0
		for _, i := range f {
			if y[i] == 1 {
				ones++
			}
		}
		if ones != 2 {
			t.Errorf("fold %d has %d minority samples, want 2", fi, ones)
		}
	}
}

func TestStratifiedKFoldCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	y := make([]int, 57)
	for i := range y {
		y[i] = rng.Intn(4)
	}
	folds, err := StratifiedKFold(y, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, f := range folds {
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(y) {
		t.Errorf("covered %d, want %d", len(seen), len(y))
	}
}

func TestCrossValidateSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var X [][]float64
	var y []int
	for c := 0; c < 3; c++ {
		for i := 0; i < 40; i++ {
			X = append(X, []float64{float64(c)*6 + rng.NormFloat64()*0.4, rng.NormFloat64()})
			y = append(y, c)
		}
	}
	res, err := CrossValidate(func() classify.Classifier {
		return classify.NewDecisionTree(classify.TreeOptions{MaxDepth: 6})
	}, X, y, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folds != 10 {
		t.Errorf("folds = %d", res.Folds)
	}
	if res.Metrics.Accuracy < 0.95 {
		t.Errorf("CV accuracy = %.3f, want >= 0.95 on separable data", res.Metrics.Accuracy)
	}
	total := 0
	for _, row := range res.Confusion.M {
		for _, n := range row {
			total += n
		}
	}
	if total != len(X) {
		t.Errorf("pooled confusion total = %d, want %d", total, len(X))
	}
}

func TestCrossValidateMajorityBaseline(t *testing.T) {
	// A tree that may not split is the majority baseline: its CV
	// accuracy equals the majority class share.
	X := make([][]float64, 100)
	y := make([]int, 100)
	for i := range X {
		X[i] = []float64{float64(i)}
		if i < 70 {
			y[i] = 0
		} else {
			y[i] = 1
		}
	}
	stump := func() classify.Classifier {
		return classify.NewDecisionTree(classify.TreeOptions{MinSamplesSplit: len(X) + 1})
	}
	res, err := CrossValidate(stump, X, y, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Metrics.Accuracy, 0.70, 0.02) {
		t.Errorf("majority CV accuracy = %.3f, want ≈0.70", res.Metrics.Accuracy)
	}
}

func TestCrossValidateDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		X = append(X, []float64{rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, i%2)
	}
	factory := func() classify.Classifier {
		return classify.NewDecisionTree(classify.TreeOptions{MaxDepth: 4})
	}
	a, err := CrossValidate(factory, X, y, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(factory, X, y, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("same seed, different metrics: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	factory := func() classify.Classifier { return classify.NewDecisionTree(classify.TreeOptions{}) }
	if _, err := CrossValidate(factory, [][]float64{{1}}, []int{0, 1}, 2, 0); err == nil {
		t.Error("accepted X/y mismatch")
	}
	if _, err := CrossValidate(factory, [][]float64{{1}}, []int{0}, 5, 0); err == nil {
		t.Error("accepted n < k")
	}
}
