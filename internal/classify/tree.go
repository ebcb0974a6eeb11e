package classify

import (
	"fmt"
	"math"
	"slices"

	"adahealth/internal/vec"
)

// TreeOptions bounds decision-tree growth.
type TreeOptions struct {
	// MaxDepth limits tree height; <= 0 means the default of 16.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for a split;
	// <= 0 means 2.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum size of each child; <= 0 means 1.
	MinSamplesLeaf int
	// MinImpurityDecrease is the minimum weighted Gini decrease a
	// split must achieve.
	MinImpurityDecrease float64
}

func (o TreeOptions) withDefaults() TreeOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 16
	}
	if o.MinSamplesSplit <= 0 {
		o.MinSamplesSplit = 2
	}
	if o.MinSamplesLeaf <= 0 {
		o.MinSamplesLeaf = 1
	}
	return o
}

// DecisionTree is a CART-style binary classification tree using Gini
// impurity and numeric threshold splits — the classification model the
// paper uses to assess the robustness of clustering results.
type DecisionTree struct {
	Opts TreeOptions

	root    *treeNode
	classes int

	// Node and class-histogram storage is slab-allocated on the tree
	// and reused across refits of the same instance (each fit resets
	// the arena cursors, invalidating the previous model — which Fit
	// always did). Slabs are fixed-size so node pointers stay stable
	// as the arena grows; this removes the two heap allocations every
	// grown node used to cost, the dominant allocation source of a
	// cross-validated sweep.
	nodeSlabs           [][]treeNode
	slabIdx, slabUsed   int
	countsSlabs         [][]int
	cSlabIdx, cSlabUsed int

	// st is the grower's working set, kept across refits like the slabs.
	st growState
}

const nodeSlabSize = 256

// resetArena rewinds the node/counts slabs for a fresh fit, keeping
// their memory.
func (t *DecisionTree) resetArena() {
	t.slabIdx, t.slabUsed = 0, 0
	t.cSlabIdx, t.cSlabUsed = 0, 0
}

// newNode returns a zeroed node from the slab arena.
func (t *DecisionTree) newNode() *treeNode {
	for {
		if t.slabIdx >= len(t.nodeSlabs) {
			t.nodeSlabs = append(t.nodeSlabs, make([]treeNode, nodeSlabSize))
		}
		slab := t.nodeSlabs[t.slabIdx]
		if t.slabUsed < len(slab) {
			n := &slab[t.slabUsed]
			t.slabUsed++
			*n = treeNode{}
			return n
		}
		t.slabIdx++
		t.slabUsed = 0
	}
}

// newCounts returns a zeroed length-classes histogram from the arena.
func (t *DecisionTree) newCounts() []int {
	need := t.classes
	for {
		if t.cSlabIdx >= len(t.countsSlabs) {
			size := 4096
			if need > size {
				size = need
			}
			t.countsSlabs = append(t.countsSlabs, make([]int, size))
		}
		slab := t.countsSlabs[t.cSlabIdx]
		if t.cSlabUsed+need <= len(slab) {
			c := slab[t.cSlabUsed : t.cSlabUsed+need : t.cSlabUsed+need]
			t.cSlabUsed += need
			for i := range c {
				c[i] = 0
			}
			return c
		}
		t.cSlabIdx++
		t.cSlabUsed = 0
	}
}

type treeNode struct {
	// Internal nodes route x[feature] <= threshold to left.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// Leaves carry a prediction and the training class histogram.
	prediction int
	counts     []int
	samples    int
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// NewDecisionTree returns an unfitted tree with the given options.
func NewDecisionTree(opts TreeOptions) *DecisionTree {
	return &DecisionTree{Opts: opts}
}

// entry is one non-zero cell of a feature column.
type entry struct {
	v   float64
	row int32
}

// ColumnOrder is a reusable presorted view of a feature matrix, and it
// is sparse: for every feature it keeps only the non-zero cells, sorted
// by value — negatives, then positives, with the column's zeros an
// implicit block between them. The patient-by-exam matrices the tree
// is trained on are mostly zeros, and all zeros of a column tie at one
// value, so they can only ever contribute the one candidate threshold
// between the block and its neighbours; a grower that knows this scans
// and partitions O(non-zeros) per node instead of O(rows × features).
//
// Cross-validation builds the view once per matrix and derives each
// fold's columns by a linear filter instead of re-sorting every fold of
// every configuration. It is built eagerly and never written again, so
// concurrent fits may share one.
type ColumnOrder struct {
	rows, dim int
	// entries[start[f]:start[f+1]] are feature f's non-zero cells in
	// ascending value order.
	start   []int
	entries []entry
}

// NewColumnOrder presorts every feature column of X (which must have
// at least one row and column). Every value must be finite: a NaN has
// no place in a sort order and an infinity no midpoint with its
// neighbour, so either is rejected here rather than growing a
// meaningless tree. A stored zero, negative or not, is a zero.
func NewColumnOrder(X *vec.CSRMatrix) (*ColumnOrder, error) {
	n, d := X.NumRows(), X.NumCols()
	if n == 0 {
		return nil, fmt.Errorf("classify: no rows to presort")
	}
	if d == 0 {
		return nil, fmt.Errorf("classify: zero-dimensional features")
	}
	// Count, then fill: the arrays are sized to the non-zeros exactly.
	start := make([]int, d+1)
	for i := range n {
		vals, cols := X.RowView(i)
		for p, v := range vals {
			if v != 0 {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("classify: non-finite feature value %v at row %d, column %d", v, i, cols[p])
				}
				start[cols[p]+1]++
			}
		}
	}
	for f := 0; f < d; f++ {
		start[f+1] += start[f]
	}
	entries := make([]entry, start[d])
	next := slices.Clone(start[:d])
	for i := range n {
		vals, cols := X.RowView(i)
		for p, v := range vals {
			if f := cols[p]; v != 0 {
				entries[next[f]] = entry{v, int32(i)}
				next[f]++
			}
		}
	}
	for f := 0; f < d; f++ {
		slices.SortFunc(entries[start[f]:start[f+1]], func(a, b entry) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			default:
				return 0
			}
		})
	}
	return &ColumnOrder{rows: n, dim: d, start: start, entries: entries}, nil
}

// checkOrderShape rejects a ColumnOrder built for a different matrix.
func checkOrderShape(ord *ColumnOrder, X *vec.CSRMatrix) error {
	if ord.rows != X.NumRows() || ord.dim != X.NumCols() {
		return fmt.Errorf("classify: ColumnOrder shape %dx%d does not match matrix %dx%d",
			ord.rows, ord.dim, X.NumRows(), X.NumCols())
	}
	return nil
}

// Fit implements Classifier.
func (t *DecisionTree) Fit(X *vec.CSRMatrix, y []int) error {
	ord, err := NewColumnOrder(X)
	if err != nil {
		return err
	}
	rows := make([]int, X.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return t.fit(ord, y, rows)
}

// FitSubset trains on the rows subset of X — distinct row indices, in
// any order — reading the features from ord, the presorted view of
// this exact X (nil builds one), and the labels from y, which covers
// every row of X. Only ord's non-zero cells in the training rows are
// visited; X itself is not read. It fits the same tree, to the bit,
// that Fit would fit on the materialized subset.
func (t *DecisionTree) FitSubset(X *vec.CSRMatrix, y []int, rows []int, ord *ColumnOrder) error {
	if ord == nil {
		var err error
		if ord, err = NewColumnOrder(X); err != nil {
			return err
		}
	}
	if err := checkOrderShape(ord, X); err != nil {
		return err
	}
	return t.fit(ord, y, rows)
}

// span is the sub-range of the fit's entry arrays holding one node's
// non-zero cells of one feature.
type span struct{ f, lo, hi int }

// growState is the training set in the form the grower works on. It
// lives on the tree and is reused by every refit of the instance — each
// fold of a cross-validation, each K of a sweep, each job that checks
// the tree out of an optimize.Arena.
//
// A node owns a contiguous run of sample ids (matrix row indices) and,
// per feature that is not all-zero within it, one span of entries: its
// non-zero cells of that feature in ascending value order. Labels are
// looked up by row, so nothing but the 16-byte entries is carried
// through the columns. The entries come in two parities: a
// node at depth d reads src = parity d&1 and stable-partitions each
// span into the same positions of the other parity, so its children
// read contiguous sub-spans again with no copy-back. Sibling subtrees
// own disjoint positions at every parity.
type growState struct {
	label    []int32 // by matrix row; -1 when the row is not in the fit
	goesLeft []uint8 // by matrix row; 0/1 so the partition is branchless
	ids      []int32
	cur, alt []entry
	// spans is a stack of active-feature lists: a node pushes one list
	// per child and pops both on return. A feature leaves the list once
	// it is constant within a node — it is constant in every descendant
	// too — so deep nodes scan and partition few columns.
	spans []span
	// left is the class histogram left of the scan boundary, pos that of
	// a column's positive cells.
	left, pos []int
}

// resized returns s with length n, reusing its memory when it is large
// enough; the contents are unspecified.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// fit is the one way a tree is grown: on the distinct rows of ord's
// matrix, with y labelling every row of it.
func (t *DecisionTree) fit(ord *ColumnOrder, y []int, rows []int) error {
	if len(y) != ord.rows {
		return fmt.Errorf("classify: %d rows but %d labels", ord.rows, len(y))
	}
	if len(rows) == 0 {
		return fmt.Errorf("classify: empty training subset")
	}
	st := &t.st
	st.label = resized(st.label, ord.rows)
	for i := range st.label {
		st.label[i] = -1
	}
	st.ids = st.ids[:0]
	classes := 0
	for _, r := range rows {
		if r < 0 || r >= ord.rows {
			return fmt.Errorf("classify: training row %d outside [0,%d)", r, ord.rows)
		}
		if y[r] < 0 {
			return fmt.Errorf("classify: negative label %d at row %d", y[r], r)
		}
		// The filter below keeps each matrix row once, so a repeated row
		// would silently train on one copy.
		if st.label[r] >= 0 {
			return fmt.Errorf("classify: duplicate training row %d", r)
		}
		st.label[r] = int32(y[r])
		st.ids = append(st.ids, int32(r))
		classes = max(classes, y[r]+1)
	}

	t.Opts = t.Opts.withDefaults()
	t.classes = classes
	t.resetArena()
	st.goesLeft = resized(st.goesLeft, ord.rows)
	st.left = resized(st.left, classes)
	st.pos = resized(st.pos, classes)

	// Filter the view's columns to the training rows: O(non-zeros).
	st.cur = resized(st.cur, len(ord.entries))[:0]
	st.alt = resized(st.alt, len(ord.entries))
	st.spans = st.spans[:0]
	for f := 0; f < ord.dim; f++ {
		lo := len(st.cur)
		for _, e := range ord.entries[ord.start[f]:ord.start[f+1]] {
			if st.label[e.row] >= 0 {
				st.cur = append(st.cur, e)
			}
		}
		if len(st.cur) > lo {
			st.spans = append(st.spans, span{f, lo, len(st.cur)})
		}
	}
	t.root = t.grow(0, len(rows), 0, st.spans)
	return nil
}

// gini returns the Gini impurity of a class histogram with n samples.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

func argmax(h []int) int {
	best := 0
	for c, n := range h {
		if n > h[best] {
			best = c
		}
	}
	return best
}

// split is one node's search for its best threshold. The scan keeps
// the Gini terms as integer sums of squared class counts on either
// side of the boundary, sumL and sumR: moving w samples of a class
// with l on the left and r on the right changes them by w·(2l+w) and
// −w·(2r−w), so a candidate costs O(1). With
//
//	score = sumL/nLeft + sumR/nRight
//
// the weighted Gini decrease is (score − sumP/n)/n, a monotone map, so
// maximizing score selects the split maximizing the decrease and the
// MinImpurityDecrease gate becomes the floor minScore.
type split struct {
	counts   []int // the node's class histogram
	n        int   // its sample count
	sumP     int64 // Σ counts²
	minLeaf  int
	minScore float64

	sumL, sumR int64
	nLeft      int

	best      span // best.f < 0: no admissible split yet
	threshold float64
	score     float64
}

// try scores the boundary between adjacent distinct values v < next.
// Only a strictly better score replaces the incumbent, so among equal
// scores the first in (feature, value) order wins.
func (s *split) try(sp span, v, next float64, sumL, sumR int64, nLeft int) {
	nRight := s.n - nLeft
	if nLeft >= s.minLeaf && nRight >= s.minLeaf {
		score := float64(sumL)/float64(nLeft) + float64(sumR)/float64(nRight)
		if score >= s.minScore && score > s.score {
			s.best, s.threshold, s.score = sp, (v+next)/2, score
		}
	}
}

// run moves the cells of e across the boundary one by one, trying the
// boundary after each cell whose successor — the next cell, or after
// the last one the value next when more says there is one — differs.
func (st *growState) run(s *split, sp span, e []entry, next float64, more bool) {
	left, counts, label := st.left, s.counts, st.label
	sumL, sumR, nLeft := s.sumL, s.sumR, s.nLeft
	for i, en := range e {
		c := label[en.row]
		l := int64(left[c])
		r := int64(counts[c]) - l
		sumL += 2*l + 1
		sumR -= 2*r - 1
		left[c]++
		nLeft++
		nv := next
		if i+1 < len(e) {
			nv = e[i+1].v
		} else if !more {
			break
		}
		if en.v != nv { // can't split between equal values
			s.try(sp, en.v, nv, sumL, sumR, nLeft)
		}
	}
	s.sumL, s.sumR, s.nLeft = sumL, sumR, nLeft
}

// scan tries every threshold of one feature within a node of m
// samples, in ascending value order: e holds the node's non-zero cells
// of the feature, the other m − len(e) samples are zeros. The zero
// block crosses the boundary in one step — the histogram left of it
// afterwards is the node's minus the positives' — and contributes the
// single threshold between zero and the first positive; the boundary
// below the block belongs to the last negative.
func (st *growState) scan(s *split, sp span, e []entry, m int) {
	neg := 0
	for neg < len(e) && e[neg].v < 0 {
		neg++
	}
	zeros := m > len(e)
	clear(st.left)
	s.sumL, s.sumR, s.nLeft = 0, s.sumP, 0
	if neg > 0 {
		next, more := 0.0, zeros
		if !zeros && neg < len(e) {
			next, more = e[neg].v, true
		}
		st.run(s, sp, e[:neg], next, more)
	}
	if neg == len(e) {
		return // nothing above the negatives or the zero block
	}
	if zeros {
		clear(st.pos)
		for _, en := range e[neg:] {
			st.pos[st.label[en.row]]++
		}
		s.sumL, s.sumR, s.nLeft = 0, 0, s.n-(len(e)-neg)
		for c, p := range st.pos {
			l := s.counts[c] - p
			st.left[c] = l
			s.sumL += int64(l) * int64(l)
			s.sumR += int64(p) * int64(p)
		}
		s.try(sp, 0, e[neg].v, s.sumL, s.sumR, s.nLeft)
	}
	st.run(s, sp, e[neg:], 0, false)
}

// constant reports whether a feature with non-zero cells e is constant
// within a node of m samples (a span is never empty, so all-zero
// features are not in a node's list to begin with).
func constant(e []entry, m int) bool { return len(e) == m && e[0].v == e[m-1].v }

// grow builds the subtree for the samples st.ids[lo:hi], whose
// non-zero cells are the spans listed in act.
func (t *DecisionTree) grow(lo, hi, depth int, act []span) *treeNode {
	st := &t.st
	ids := st.ids[lo:hi]
	m := len(ids)
	counts := t.newCounts()
	for _, id := range ids {
		counts[st.label[id]]++
	}
	node := t.newNode()
	node.prediction = argmax(counts)
	node.counts = counts
	node.samples = m
	if gini(counts, m) == 0 || depth >= t.Opts.MaxDepth || m < t.Opts.MinSamplesSplit {
		return node
	}

	// Zero-gain splits are allowed (as in CART): on XOR-like data the
	// root split has zero immediate Gini decrease but enables pure
	// children. Growth is still bounded by MaxDepth / MinSamplesLeaf.
	s := split{counts: counts, n: m, minLeaf: t.Opts.MinSamplesLeaf, best: span{f: -1}, score: math.Inf(-1)}
	for _, c := range counts {
		s.sumP += int64(c) * int64(c)
	}
	n := float64(m)
	s.minScore = float64(s.sumP)/n + t.Opts.MinImpurityDecrease*n
	src, dst := st.cur, st.alt
	if depth&1 == 1 {
		src, dst = dst, src
	}
	for _, sp := range act {
		if e := src[sp.lo:sp.hi]; !constant(e, m) {
			st.scan(&s, sp, e, m)
		}
	}
	if s.best.f < 0 {
		return node
	}

	// Route every sample: the zeros of the chosen feature all go one
	// way, its non-zero cells by value. The sample list is partitioned
	// in place — nothing depends on its order.
	var zerosLeft uint8
	if 0 <= s.threshold {
		zerosLeft = 1
	}
	for _, id := range ids {
		st.goesLeft[id] = zerosLeft
	}
	for _, en := range src[s.best.lo:s.best.hi] {
		var g uint8
		if en.v <= s.threshold {
			g = 1
		}
		st.goesLeft[en.row] = g
	}
	nLeft := 0
	for p, id := range ids {
		if st.goesLeft[id] != 0 {
			ids[p], ids[nLeft] = ids[nLeft], id
			nLeft++
		}
	}
	if nLeft == 0 || nLeft == m {
		return node // numerically degenerate split
	}

	// Stable partition of each non-constant feature's cells into the
	// other parity; a child's list keeps the features it has cells of.
	mark := len(st.spans)
	st.spans = slices.Grow(st.spans, 2*len(act))[:mark+2*len(act)]
	leftAct := st.spans[mark : mark : mark+len(act)]
	rightAct := st.spans[mark+len(act) : mark+len(act)]
	for _, sp := range act {
		e := src[sp.lo:sp.hi]
		if constant(e, m) {
			continue
		}
		k := 0
		for _, en := range e {
			k += int(st.goesLeft[en.row])
		}
		// Branchless routing: g selects the left or right write cursor
		// without a data-dependent jump.
		d := dst[sp.lo:sp.hi]
		li, ri := 0, k
		for _, en := range e {
			g := int(st.goesLeft[en.row])
			d[ri+(li-ri)*g] = en
			li += g
			ri += 1 - g
		}
		if k > 0 {
			leftAct = append(leftAct, span{sp.f, sp.lo, sp.lo + k})
		}
		if k < len(e) {
			rightAct = append(rightAct, span{sp.f, sp.lo + k, sp.hi})
		}
	}
	node.feature = s.best.f
	node.threshold = s.threshold
	node.left = t.grow(lo, lo+nLeft, depth+1, leftAct)
	node.right = t.grow(lo+nLeft, hi, depth+1, rightAct)
	st.spans = st.spans[:mark]
	return node
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) int {
	if t.root == nil {
		panic("classify: DecisionTree.Predict before Fit")
	}
	n := t.root
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prediction
}
