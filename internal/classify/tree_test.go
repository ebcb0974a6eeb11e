package classify

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"adahealth/internal/cluster"
	"adahealth/internal/synth"
	"adahealth/internal/vec"
	"adahealth/internal/vsm"
)

// xorData is not linearly separable; trees must nail it.
func xorData() ([][]float64, []int) {
	var X [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		a, b := float64(i%2), float64((i/2)%2)
		X = append(X, []float64{a*2 - 1, b*2 - 1})
		if (a == 1) != (b == 1) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

func gaussianClasses(rng *rand.Rand, perClass int) ([][]float64, []int) {
	centers := [][]float64{{0, 0, 0}, {5, 5, 0}, {0, 5, 5}}
	var X [][]float64
	var y []int
	for c, ctr := range centers {
		for i := 0; i < perClass; i++ {
			row := make([]float64, 3)
			for j := range row {
				row[j] = ctr[j] + rng.NormFloat64()*0.5
			}
			X = append(X, row)
			y = append(y, c)
		}
	}
	return X, y
}

func TestTreeFitErrors(t *testing.T) {
	tr := NewDecisionTree(TreeOptions{})
	if err := tr.Fit(vec.NewCSRFromDense(nil), nil); err == nil {
		t.Error("accepted empty training set")
	}
	if err := tr.Fit(vec.NewCSRFromDense([][]float64{{1}}), []int{0, 1}); err == nil {
		t.Error("accepted X/y length mismatch")
	}
	if err := tr.Fit(vec.NewCSRFromDense([][]float64{{1}, {2}}), []int{0, -1}); err == nil {
		t.Error("accepted negative label")
	}
	// A NaN has no sort position and an infinity no midpoint: the
	// presort names the cell instead of growing a garbage tree.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X := [][]float64{{1, 2}, {3, 4}, {5, bad}}
		err := tr.Fit(vec.NewCSRFromDense(X), []int{0, 1, 0})
		if err == nil || !strings.Contains(err.Error(), "row 2, column 1") {
			t.Errorf("Fit with %v: err = %v, want one naming row 2, column 1", bad, err)
		}
	}
	// Negative zero is a zero, not an error.
	if err := tr.Fit(vec.NewCSRFromDense([][]float64{{math.Copysign(0, -1)}, {1}}), []int{0, 1}); err != nil {
		t.Errorf("rejected -0: %v", err)
	}
}

func TestTreePredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Predict before Fit did not panic")
		}
	}()
	NewDecisionTree(TreeOptions{}).Predict([]float64{1})
}

func TestTreeLearnsXOR(t *testing.T) {
	X, y := xorData()
	tr := NewDecisionTree(TreeOptions{MaxDepth: 4})
	if err := tr.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if got := tr.Predict(x); got != y[i] {
			t.Fatalf("XOR training point %d misclassified: got %d want %d", i, got, y[i])
		}
	}
}

func TestTreeGeneralizesGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := gaussianClasses(rng, 60)
	testX, testY := gaussianClasses(rng, 20)
	tr := NewDecisionTree(TreeOptions{MaxDepth: 8})
	if err := tr.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range testX {
		if tr.Predict(x) == testY[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testX))
	if acc < 0.95 {
		t.Errorf("test accuracy = %.3f, want >= 0.95 on separated gaussians", acc)
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := gaussianClasses(rng, 50)
	tr := NewDecisionTree(TreeOptions{MaxDepth: 2})
	if err := tr.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 2 {
		t.Errorf("Depth = %d, want <= 2", d)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := gaussianClasses(rng, 30)
	tr := NewDecisionTree(TreeOptions{MinSamplesLeaf: 10})
	if err := tr.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	var check func(n *treeNode)
	check = func(n *treeNode) {
		if n == nil {
			return
		}
		if n.isLeaf() && n.samples < 10 {
			t.Errorf("leaf with %d samples violates MinSamplesLeaf=10", n.samples)
		}
		check(n.left)
		check(n.right)
	}
	check(tr.root)
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{0, 0, 0, 0}
	tr := NewDecisionTree(TreeOptions{})
	if err := tr.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Errorf("pure training set grew %d leaves, want 1", tr.NumLeaves())
	}
	if tr.Predict([]float64{99}) != 0 {
		t.Error("pure tree mispredicts")
	}
}

func TestTreeConstantFeatures(t *testing.T) {
	// No split possible: all feature values identical but labels mixed.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	tr := NewDecisionTree(TreeOptions{})
	if err := tr.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Errorf("unsplittable data grew %d leaves, want 1", tr.NumLeaves())
	}
}

func TestTreeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := gaussianClasses(rng, 40)
	a := NewDecisionTree(TreeOptions{})
	b := NewDecisionTree(TreeOptions{})
	if err := a.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(vec.NewCSRFromDense(X), y); err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("two fits on identical data disagree")
		}
	}
}

// FitSubset (the cross-validation fast path) must fit the same tree
// Fit would fit on the materialized subset: sort-tie order differs
// between the two paths, but ties never change the chosen splits.
func TestFitSubsetMatchesFitOnMaterializedSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		n, d := 120+rng.Intn(80), 3+rng.Intn(8)
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				// Quantized values so ties are common.
				X[i][j] = float64(rng.Intn(6))
			}
			y[i] = rng.Intn(4)
		}
		ord, err := NewColumnOrder(vec.NewCSRFromDense(X))
		if err != nil {
			t.Fatal(err)
		}
		var rows []int
		var subX [][]float64
		var subY []int
		for i := range X {
			if rng.Float64() < 0.8 {
				rows = append(rows, i)
				subX = append(subX, X[i])
				subY = append(subY, y[i])
			}
		}
		direct := NewDecisionTree(TreeOptions{MaxDepth: 6})
		if err := direct.Fit(vec.NewCSRFromDense(subX), subY); err != nil {
			t.Fatal(err)
		}
		viaOrd := NewDecisionTree(TreeOptions{MaxDepth: 6})
		if err := viaOrd.FitSubset(vec.NewCSRFromDense(X), y, rows, ord); err != nil {
			t.Fatal(err)
		}
		if direct.Depth() != viaOrd.Depth() || direct.NumLeaves() != viaOrd.NumLeaves() {
			t.Fatalf("trial %d: shape differs: depth %d/%d leaves %d/%d", trial,
				direct.Depth(), viaOrd.Depth(), direct.NumLeaves(), viaOrd.NumLeaves())
		}
		for i := range X {
			if a, b := direct.Predict(X[i]), viaOrd.Predict(X[i]); a != b {
				t.Fatalf("trial %d row %d: Predict %d vs %d", trial, i, a, b)
			}
		}
	}
}

func TestFitSubsetErrors(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []int{0, 1, 0}
	ord, err := NewColumnOrder(vec.NewCSRFromDense(X))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewDecisionTree(TreeOptions{})
	if err := tr.FitSubset(vec.NewCSRFromDense(X), y, nil, ord); err == nil {
		t.Error("accepted empty subset")
	}
	if err := tr.FitSubset(vec.NewCSRFromDense(X), y, []int{5}, ord); err == nil {
		t.Error("accepted out-of-range row")
	}
	if err := tr.FitSubset(vec.NewCSRFromDense(X), y, []int{0, 0}, ord); err == nil {
		t.Error("accepted duplicate rows (would train on phantom zero samples)")
	}
	if err := tr.FitSubset(vec.NewCSRFromDense(X), y[:2], []int{0}, ord); err == nil {
		t.Error("accepted label/row mismatch")
	}
	other := [][]float64{{1}, {2}}
	if err := tr.FitSubset(vec.NewCSRFromDense(other), []int{0, 1}, []int{0}, ord); err == nil {
		t.Error("accepted mismatched ColumnOrder")
	}
	// nil ord builds one internally.
	if err := tr.FitSubset(vec.NewCSRFromDense(X), y, []int{0, 1, 2}, nil); err != nil {
		t.Errorf("nil ord: %v", err)
	}
	// ... and rejects a non-finite cell even in a row outside the subset:
	// the view is of the whole matrix.
	bad := [][]float64{{1, 2}, {math.NaN(), 4}, {5, 6}}
	if err := tr.FitSubset(vec.NewCSRFromDense(bad), y, []int{0, 2}, nil); err == nil {
		t.Error("accepted NaN feature")
	}
	if _, err := NewColumnOrder(vec.NewCSRFromDense([][]float64{{0, math.Inf(1)}})); err == nil {
		t.Error("NewColumnOrder accepted +Inf")
	}
}

func TestFitSubsetEmptyMatrixErrorsNotPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	X, _ := gaussianClasses(rng, 10)
	ord, err := NewColumnOrder(vec.NewCSRFromDense(X))
	if err != nil {
		t.Fatal(err)
	}
	// An empty matrix with a populated ColumnOrder must be rejected
	// with an error, not an index panic from the shape message.
	if err := NewDecisionTree(TreeOptions{}).FitSubset(vec.NewCSRFromDense(nil), nil, []int{0}, ord); err == nil {
		t.Error("tree accepted empty matrix with non-empty ColumnOrder")
	}
}

// BenchmarkTreeCV is the robustness assessment's kernel without the
// daemon: one 10-fold cross-validation of the tree on a matrix of the
// benchmark's cohort shape (1000 patients × the 64 most frequent exam
// types, K-means labels at K = 8), every fold fitting through one
// shared ColumnOrder and predicting its held-out rows.
func BenchmarkTreeCV(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.NumPatients, cfg.TargetRecords, cfg.NumExamTypes, cfg.NumProfiles = 1000, 15000, 159, 8
	log, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := vsm.Build(log, vsm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	csr := m.Project(64).Rows
	X := csr.Dense()
	fit, err := cluster.KMeans(csr, cluster.Options{K: 8, Seed: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	y := fit.Labels
	const folds = 10
	train := make([][]int, folds)
	for i := range X {
		for f := range train {
			if i%folds != f {
				train[f] = append(train[f], i)
			}
		}
	}
	ord, err := NewColumnOrder(csr)
	if err != nil {
		b.Fatal(err)
	}
	tree := NewDecisionTree(TreeOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct := 0
		for f, rows := range train {
			if err := tree.FitSubset(csr, y, rows, ord); err != nil {
				b.Fatal(err)
			}
			for r := f; r < len(X); r += folds {
				if tree.Predict(X[r]) == y[r] {
					correct++
				}
			}
		}
		benchSink = correct
	}
}

var benchSink int

// Depth returns the height of the fitted tree (0 for a single leaf).
func (t *DecisionTree) Depth() int {
	var h func(n *treeNode) int
	h = func(n *treeNode) int {
		if n == nil || n.isLeaf() {
			return 0
		}
		l, r := h(n.left), h(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}

// NumLeaves counts the leaves of the fitted tree.
func (t *DecisionTree) NumLeaves() int {
	var c func(n *treeNode) int
	c = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		if n.isLeaf() {
			return 1
		}
		return c(n.left) + c(n.right)
	}
	return c(t.root)
}
