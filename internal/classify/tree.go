package classify

import (
	"fmt"
	"math"
	"slices"
	"strings"
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

	root     *treeNode
	classes  int
	features int
	// importance[f] accumulates the total weighted impurity decrease
	// contributed by splits on feature f.
	importance []float64

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

// NewColumnOrder presorts every feature column of X (which must be
// rectangular with at least one row and column). Every value must be
// finite: a NaN has no place in a sort order and an infinity no
// midpoint with its neighbour, so either is rejected here rather than
// growing a meaningless tree. A negative zero is a zero.
func NewColumnOrder(X [][]float64) (*ColumnOrder, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("classify: no rows to presort")
	}
	d := len(X[0])
	if d == 0 {
		return nil, fmt.Errorf("classify: zero-dimensional features")
	}
	// Count, then fill: the arrays are sized to the non-zeros exactly.
	start := make([]int, d+1)
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("classify: row %d has dimension %d, want %d", i, len(row), d)
		}
		for f, v := range row {
			if v != 0 {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("classify: non-finite feature value %v at row %d, column %d", v, i, f)
				}
				start[f+1]++
			}
		}
	}
	for f := 0; f < d; f++ {
		start[f+1] += start[f]
	}
	entries := make([]entry, start[d])
	next := slices.Clone(start[:d])
	for i, row := range X {
		for f, v := range row {
			if v != 0 {
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

// SubsetFitter is implemented by classifiers that can train on a row
// subset of a matrix with a shared presorted view — the
// cross-validation fast path.
type SubsetFitter interface {
	FitSubset(X [][]float64, y []int, rows []int, ord *ColumnOrder) error
}

// checkOrderShape rejects a ColumnOrder built for a different matrix.
// The column count is read defensively so an empty X yields an error,
// not an index panic.
func checkOrderShape(ord *ColumnOrder, X [][]float64) error {
	cols := 0
	if len(X) > 0 {
		cols = len(X[0])
	}
	if ord.rows != len(X) || (len(X) > 0 && ord.dim != cols) {
		return fmt.Errorf("classify: ColumnOrder shape %dx%d does not match matrix %dx%d",
			ord.rows, ord.dim, len(X), cols)
	}
	return nil
}

// Fit implements Classifier.
func (t *DecisionTree) Fit(X [][]float64, y []int) error {
	ord, err := NewColumnOrder(X)
	if err != nil {
		return err
	}
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	return t.fit(ord, y, rows, nil, nil)
}

// FitSubset trains on the rows subset of X — distinct row indices, in
// any order — reading the features from ord, the presorted view of
// this exact X (nil builds one), and the labels from y, which covers
// every row of X. Only ord's non-zero cells in the training rows are
// visited; X itself is not read. It fits the same tree, to the bit,
// that Fit would fit on the materialized subset.
func (t *DecisionTree) FitSubset(X [][]float64, y []int, rows []int, ord *ColumnOrder) error {
	if ord == nil {
		var err error
		if ord, err = NewColumnOrder(X); err != nil {
			return err
		}
	}
	if err := checkOrderShape(ord, X); err != nil {
		return err
	}
	return t.fit(ord, y, rows, nil, nil)
}

// sample is what a fit knows about one matrix row.
type sample struct {
	label  int32
	weight int32 // multiplicity in the training set; 0 when not in it
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
// non-zero cells of that feature in ascending value order. Labels and
// weights are looked up by row, so nothing but the 16-byte entries is
// carried through the columns. The entries come in two parities: a
// node at depth d reads src = parity d&1 and stable-partitions each
// span into the same positions of the other parity, so its children
// read contiguous sub-spans again with no copy-back. Sibling subtrees
// own disjoint positions at every parity.
type growState struct {
	info     []sample // by matrix row
	goesLeft []uint8  // by matrix row; 0/1 so the partition is branchless
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
// matrix, weights[i] > 0 being the multiplicity of rows[i] (nil: all
// one) and feats the columns of ord that make up the tree's feature
// space, in that order (nil: all of them). A row of weight w behaves
// exactly like w adjacent copies: copies share every value, so no
// threshold can fall between them and the tree is the one the
// materialized multiset would grow.
func (t *DecisionTree) fit(ord *ColumnOrder, y []int, rows []int, weights []int32, feats []int) error {
	if len(y) != ord.rows {
		return fmt.Errorf("classify: %d rows but %d labels", ord.rows, len(y))
	}
	if len(rows) == 0 {
		return fmt.Errorf("classify: empty training subset")
	}
	if weights != nil && len(weights) != len(rows) {
		return fmt.Errorf("classify: %d weights for %d rows", len(weights), len(rows))
	}
	dim := ord.dim
	if feats != nil {
		if dim = len(feats); dim == 0 {
			return fmt.Errorf("classify: empty feature bag")
		}
		for _, f := range feats {
			if f < 0 || f >= ord.dim {
				return fmt.Errorf("classify: bagged feature %d outside [0,%d)", f, ord.dim)
			}
		}
	}
	st := &t.st
	st.info = resized(st.info, ord.rows)
	clear(st.info)
	st.ids = st.ids[:0]
	classes := 0
	for i, r := range rows {
		if r < 0 || r >= ord.rows {
			return fmt.Errorf("classify: training row %d outside [0,%d)", r, ord.rows)
		}
		if y[r] < 0 {
			return fmt.Errorf("classify: negative label %d at row %d", y[r], r)
		}
		w := int32(1)
		if weights != nil {
			if w = weights[i]; w <= 0 {
				return fmt.Errorf("classify: non-positive weight %d for row %d", w, r)
			}
		}
		// The filter below keeps each matrix row once, so a repeated row
		// would silently train on one copy.
		if st.info[r].weight != 0 {
			return fmt.Errorf("classify: duplicate training row %d (multiplicity belongs in weights)", r)
		}
		st.info[r] = sample{label: int32(y[r]), weight: w}
		st.ids = append(st.ids, int32(r))
		classes = max(classes, y[r]+1)
	}

	t.Opts = t.Opts.withDefaults()
	t.classes = classes
	t.features = dim
	t.importance = make([]float64, dim)
	t.resetArena()
	st.goesLeft = resized(st.goesLeft, ord.rows)
	st.left = resized(st.left, classes)
	st.pos = resized(st.pos, classes)

	// Filter the view's columns to the training rows: O(non-zeros).
	column := func(fi int) []entry {
		if feats != nil {
			fi = feats[fi]
		}
		return ord.entries[ord.start[fi]:ord.start[fi+1]]
	}
	nnz := 0
	for fi := 0; fi < dim; fi++ {
		nnz += len(column(fi))
	}
	st.cur = resized(st.cur, nnz)[:0]
	st.alt = resized(st.alt, nnz)
	st.spans = st.spans[:0]
	for fi := 0; fi < dim; fi++ {
		lo := len(st.cur)
		for _, e := range column(fi) {
			if st.info[e.row].weight != 0 {
				st.cur = append(st.cur, e)
			}
		}
		if len(st.cur) > lo {
			st.spans = append(st.spans, span{fi, lo, len(st.cur)})
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
// the weighted Gini decrease is (score − sumP/w)/w, a monotone map, so
// maximizing score selects the split maximizing the decrease and the
// MinImpurityDecrease gate becomes the floor minScore. All counts are
// in weighted units.
type split struct {
	counts   []int // the node's class histogram
	w        int   // its total weight
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
	nRight := s.w - nLeft
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
	left, counts, info := st.left, s.counts, st.info
	sumL, sumR, nLeft := s.sumL, s.sumR, s.nLeft
	for i, en := range e {
		x := info[en.row]
		w := int64(x.weight)
		l := int64(left[x.label])
		r := int64(counts[x.label]) - l
		sumL += w * (2*l + w)
		sumR -= w * (2*r - w)
		left[x.label] += int(w)
		nLeft += int(w)
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
		posW := 0
		for _, en := range e[neg:] {
			x := st.info[en.row]
			st.pos[x.label] += int(x.weight)
			posW += int(x.weight)
		}
		s.sumL, s.sumR, s.nLeft = 0, 0, s.w-posW
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
	w := 0
	for _, id := range ids {
		x := st.info[id]
		counts[x.label] += int(x.weight)
		w += int(x.weight)
	}
	node := t.newNode()
	node.prediction = argmax(counts)
	node.counts = counts
	node.samples = w
	if gini(counts, w) == 0 || depth >= t.Opts.MaxDepth || w < t.Opts.MinSamplesSplit {
		return node
	}

	// Zero-gain splits are allowed (as in CART): on XOR-like data the
	// root split has zero immediate Gini decrease but enables pure
	// children. Growth is still bounded by MaxDepth / MinSamplesLeaf.
	s := split{counts: counts, w: w, minLeaf: t.Opts.MinSamplesLeaf, best: span{f: -1}, score: math.Inf(-1)}
	for _, c := range counts {
		s.sumP += int64(c) * int64(c)
	}
	n := float64(w)
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
	decrease := (s.score - float64(s.sumP)/n) / n // weighted Gini decrease
	t.importance[s.best.f] += decrease * n
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

// FeatureImportance returns the normalized impurity-decrease
// importance per feature (sums to 1 when any split occurred).
func (t *DecisionTree) FeatureImportance() []float64 {
	out := make([]float64, len(t.importance))
	total := 0.0
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// Rules renders the fitted tree as human-readable IF/THEN rules, one
// per leaf, using featureNames (nil falls back to x[i] notation).
// Knowledge items in the K-DB store these strings.
func (t *DecisionTree) Rules(featureNames []string) []string {
	if t.root == nil {
		return nil
	}
	name := func(f int) string {
		if f < len(featureNames) {
			return featureNames[f]
		}
		return fmt.Sprintf("x[%d]", f)
	}
	var rules []string
	var walk func(n *treeNode, conds []string)
	walk = func(n *treeNode, conds []string) {
		if n.isLeaf() {
			cond := "always"
			if len(conds) > 0 {
				cond = strings.Join(conds, " AND ")
			}
			rules = append(rules, fmt.Sprintf("IF %s THEN class=%d (n=%d)",
				cond, n.prediction, n.samples))
			return
		}
		walk(n.left, append(conds, fmt.Sprintf("%s <= %.4g", name(n.feature), n.threshold)))
		walk(n.right, append(conds[:len(conds):len(conds)],
			fmt.Sprintf("%s > %.4g", name(n.feature), n.threshold)))
	}
	walk(t.root, nil)
	return rules
}
