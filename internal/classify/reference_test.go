package classify

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The reference CART below is the oracle for the production grower.
// It shares no code with it and no data structure: every node re-sorts
// its samples per feature and recomputes the class histograms of both
// sides from scratch at every candidate boundary. The only things it
// has in common with tree.go are the rules a tree is defined by —
//
//   - a node is a leaf when it is pure, at MaxDepth, or smaller than
//     MinSamplesSplit;
//   - features are tried in ascending index order, candidate
//     boundaries in ascending value order, only between distinct
//     values, only when both sides keep MinSamplesLeaf samples;
//   - a candidate scores Σl²/nLeft + Σr²/nRight over integer class
//     counts, must reach Σc²/n + MinImpurityDecrease·n, and replaces
//     the incumbent only when strictly better (first best wins);
//   - the threshold is the midpoint (v + next)/2, samples route by
//     value <= threshold, and a split that leaves a side empty after
//     that routing makes the node a leaf.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	prediction  int
	counts      []int
	samples     int
}

type refTree struct {
	opts       TreeOptions
	X          [][]float64
	y          []int
	classes    int
	importance []float64
}

// refFit grows the reference tree on every row of X.
func refFit(X [][]float64, y []int, opts TreeOptions) (*refNode, []float64) {
	rt := &refTree{opts: opts.withDefaults(), X: X, y: y, importance: make([]float64, len(X[0]))}
	for _, c := range y {
		if c+1 > rt.classes {
			rt.classes = c + 1
		}
	}
	ids := make([]int, len(X))
	for i := range ids {
		ids[i] = i
	}
	return rt.grow(ids, 0), rt.importance
}

func (rt *refTree) histogram(ids []int) []int {
	h := make([]int, rt.classes)
	for _, i := range ids {
		h[rt.y[i]]++
	}
	return h
}

func sumSquares(h []int) int64 {
	var s int64
	for _, c := range h {
		s += int64(c) * int64(c)
	}
	return s
}

func (rt *refTree) grow(ids []int, depth int) *refNode {
	counts := rt.histogram(ids)
	m := len(ids)
	node := &refNode{counts: counts, samples: m}
	for c, n := range counts {
		if n > counts[node.prediction] {
			node.prediction = c
		}
	}
	pure := false
	for _, n := range counts {
		pure = pure || n == m
	}
	if pure || depth >= rt.opts.MaxDepth || m < rt.opts.MinSamplesSplit {
		return node
	}

	n := float64(m)
	sumP := sumSquares(counts)
	minScore := float64(sumP)/n + rt.opts.MinImpurityDecrease*n
	bestFeature, bestThreshold, bestScore := -1, 0.0, math.Inf(-1)
	sorted := make([]int, m)
	for f := range rt.X[0] {
		copy(sorted, ids)
		sort.SliceStable(sorted, func(a, b int) bool { return rt.X[sorted[a]][f] < rt.X[sorted[b]][f] })
		for i := 0; i+1 < m; i++ {
			v, next := rt.X[sorted[i]][f], rt.X[sorted[i+1]][f]
			if v == next {
				continue
			}
			nLeft, nRight := i+1, m-i-1
			if nLeft < rt.opts.MinSamplesLeaf || nRight < rt.opts.MinSamplesLeaf {
				continue
			}
			sumL := sumSquares(rt.histogram(sorted[:i+1]))
			sumR := sumSquares(rt.histogram(sorted[i+1:]))
			score := float64(sumL)/float64(nLeft) + float64(sumR)/float64(nRight)
			if score >= minScore && score > bestScore {
				bestFeature, bestThreshold, bestScore = f, (v+next)/2, score
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var left, right []int
	for _, i := range ids {
		if rt.X[i][bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	rt.importance[bestFeature] += (bestScore - float64(sumP)/n) / n * n
	node.feature, node.threshold = bestFeature, bestThreshold
	node.left = rt.grow(left, depth+1)
	node.right = rt.grow(right, depth+1)
	return node
}

// sameTree compares a fitted tree with the reference node by node:
// structure, feature, threshold and importance with ==, histograms
// element-wise.
func sameTree(got *DecisionTree, want *refNode, wantImp []float64) error {
	var walk func(g *treeNode, w *refNode, path string) error
	walk = func(g *treeNode, w *refNode, path string) error {
		if g.samples != w.samples || g.prediction != w.prediction || !slices.Equal(g.counts, w.counts) {
			return fmt.Errorf("node %s: samples/prediction/counts %d/%d/%v, reference %d/%d/%v",
				path, g.samples, g.prediction, g.counts, w.samples, w.prediction, w.counts)
		}
		if g.isLeaf() != (w.left == nil) {
			return fmt.Errorf("node %s: leaf=%v, reference leaf=%v", path, g.isLeaf(), w.left == nil)
		}
		if g.isLeaf() {
			return nil
		}
		if g.feature != w.feature || g.threshold != w.threshold {
			return fmt.Errorf("node %s: split x[%d] <= %v, reference x[%d] <= %v",
				path, g.feature, g.threshold, w.feature, w.threshold)
		}
		if err := walk(g.left, w.left, path+"L"); err != nil {
			return err
		}
		return walk(g.right, w.right, path+"R")
	}
	if err := walk(got.root, want, "·"); err != nil {
		return err
	}
	for f, v := range wantImp {
		if got.importance[f] != v {
			return fmt.Errorf("importance[%d] = %v, reference %v", f, got.importance[f], v)
		}
	}
	return nil
}

// randomMatrix draws n×d features at the given non-zero density. tie
// levels > 0 quantizes the non-zeros to that many values (heavy ties);
// mixed makes half of them negative and sprinkles in a few -0.
func randomMatrix(rng *rand.Rand, n, d int, density float64, levels int, mixed bool) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			if rng.Float64() >= density {
				if mixed && rng.Intn(8) == 0 {
					X[i][j] = math.Copysign(0, -1)
				}
				continue
			}
			v := rng.Float64() + 0.01
			if levels > 0 {
				v = float64(1 + rng.Intn(levels))
			}
			if mixed && rng.Intn(2) == 0 {
				v = -v
			}
			X[i][j] = v
		}
	}
	return X
}

// checkAgainstReference fits rows of (X, y) through FitSubset and —
// with integer weights, over a feature bag, the way the forest fits a
// member — through fit, and compares both with the reference grown on
// the materialized data.
func checkAgainstReference(rng *rand.Rand, X [][]float64, y []int, opts TreeOptions) error {
	ord, err := NewColumnOrder(X)
	if err != nil {
		return err
	}
	var rows []int
	keep := 0.5 + rng.Float64()/2
	for i := range X {
		if rng.Float64() < keep {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		rows = []int{rng.Intn(len(X))}
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })

	subX := make([][]float64, len(rows))
	subY := make([]int, len(rows))
	for i, r := range rows {
		subX[i], subY[i] = X[r], y[r]
	}
	want, wantImp := refFit(subX, subY, opts)
	tree := NewDecisionTree(opts)
	for refit := 0; refit < 2; refit++ { // the second fit reuses the tree's buffers
		if err := tree.FitSubset(X, y, rows, ord); err != nil {
			return err
		}
		if err := sameTree(tree, want, wantImp); err != nil {
			return fmt.Errorf("FitSubset (fit %d): %w", refit, err)
		}
	}

	// A weighted bag over a feature bag against the materialized,
	// projected multiset.
	feats := rng.Perm(len(X[0]))[:1+rng.Intn(len(X[0]))]
	weights := make([]int32, len(rows))
	var bagX [][]float64
	var bagY []int
	for i, r := range rows {
		weights[i] = int32(1 + rng.Intn(3))
		proj := make([]float64, len(feats))
		for fi, f := range feats {
			proj[fi] = X[r][f]
		}
		for c := int32(0); c < weights[i]; c++ {
			bagX = append(bagX, proj)
			bagY = append(bagY, y[r])
		}
	}
	want, wantImp = refFit(bagX, bagY, opts)
	bag := NewDecisionTree(opts)
	if err := bag.fit(ord, y, rows, weights, feats); err != nil {
		return err
	}
	if err := sameTree(bag, want, wantImp); err != nil {
		return fmt.Errorf("weighted bag: %w", err)
	}
	return nil
}

func TestTreeMatchesReference(t *testing.T) {
	options := []TreeOptions{
		{},
		{MaxDepth: 3},
		{MinSamplesLeaf: 4},
		{MinSamplesSplit: 12, MinImpurityDecrease: 0.01},
		{MaxDepth: 5, MinSamplesLeaf: 2, MinImpurityDecrease: 0.002},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, density := range []float64{0, 0.05, 0.2, 1} {
			for _, mixed := range []bool{false, true} {
				for _, levels := range []int{0, 3} {
					n, d := 20+rng.Intn(100), 2+rng.Intn(10)
					X := randomMatrix(rng, n, d, density, levels, mixed)
					// One all-zero and one all-equal non-zero column.
					zeroCol, constCol := rng.Intn(d), rng.Intn(d)
					y := make([]int, n)
					classes := 2 + rng.Intn(5)
					for i := range X {
						X[i][constCol] = 2.5
						X[i][zeroCol] = 0
						y[i] = rng.Intn(classes)
						if rng.Intn(3) > 0 { // labels that the features partly explain
							y[i] = int(math.Abs(X[i][rng.Intn(d)])*2) % classes
						}
					}
					opts := options[rng.Intn(len(options))]
					if err := checkAgainstReference(rng, X, y, opts); err != nil {
						t.Fatalf("seed %d density %v mixed %v levels %d (%d×%d, %+v): %v",
							seed, density, mixed, levels, n, d, opts, err)
					}
				}
			}
		}
	}
}

// fuzzCase decodes bytes into a small sparse matrix, labels and tree
// options: a header (rows, columns, classes, options) followed by one
// byte per cell — most byte values decode to zero, the rest to a few
// small magnitudes of either sign, so ties, zero blocks and constant
// columns are all common.
func fuzzCase(data []byte) (X [][]float64, y []int, opts TreeOptions, ok bool) {
	if len(data) < 6 {
		return nil, nil, opts, false
	}
	n, d, classes := 2+int(data[0])%30, 1+int(data[1])%6, 2+int(data[2])%4
	opts = TreeOptions{
		MaxDepth:            int(data[3]) % 7,
		MinSamplesLeaf:      int(data[4]) % 4,
		MinImpurityDecrease: float64(data[5]%4) * 0.004,
	}
	cells := data[6:]
	at := func(i int) byte {
		if len(cells) == 0 {
			return 0
		}
		return cells[i%len(cells)]
	}
	X = make([][]float64, n)
	y = make([]int, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			switch b := at(i*d + j); {
			case b < 160: // zero
			case b < 168:
				X[i][j] = math.Copysign(0, -1)
			case b < 232:
				X[i][j] = float64(1+b%4) / 2
			default:
				X[i][j] = -float64(1+b%3) / 4
			}
		}
		y[i] = int(at(n*d+i)) % classes
	}
	return X, y, opts, true
}

func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{12, 3, 2, 0, 0, 0, 200, 0, 0, 170, 0, 240, 0, 0, 0, 1, 0, 201})
	f.Add([]byte{29, 5, 3, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{20, 1, 1, 2, 2, 0, 255, 254, 253, 180, 181, 182, 183, 161, 3})
	f.Add([]byte{7, 2, 0, 6, 0, 3, 171, 171, 171, 171, 233, 0, 233, 0, 9, 8, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		X, y, opts, ok := fuzzCase(data)
		if !ok {
			return
		}
		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		if err := checkAgainstReference(rand.New(rand.NewSource(seed)), X, y, opts); err != nil {
			t.Fatalf("%d×%d %+v: %v", len(X), len(X[0]), opts, err)
		}
	})
}
