package fpm

import (
	"fmt"
	"sort"
)

// fpNode is one node of an FP-tree over integer-encoded items.
type fpNode struct {
	item     int32
	count    int
	parent   *fpNode
	children map[int32]*fpNode
	next     *fpNode // header-table chain
}

// fpTree is an FP-tree with its header table. Items are dictionary ids
// of a Transactions encoding; noItem marks the root.
type fpTree struct {
	root    *fpNode
	headers map[int32]*fpNode
	counts  map[int32]int
}

const noItem int32 = -1

func newFPTree() *fpTree {
	return &fpTree{
		root:    &fpNode{item: noItem, children: map[int32]*fpNode{}},
		headers: map[int32]*fpNode{},
		counts:  map[int32]int{},
	}
}

// insert adds an ordered item list with a count to the tree.
func (t *fpTree) insert(items []int32, count int) {
	node := t.root
	for _, it := range items {
		child, ok := node.children[it]
		if !ok {
			child = &fpNode{item: it, parent: node, children: map[int32]*fpNode{}}
			node.children[it] = child
			// Prepend to header chain.
			child.next = t.headers[it]
			t.headers[it] = child
		}
		child.count += count
		t.counts[it] += count
		node = child
	}
}

// FPGrowth mines all itemsets with support >= minSupport using the
// FP-Growth algorithm (FP-tree plus recursive conditional trees). Its
// output is set-equal to Apriori's; it is the faster choice at low
// support thresholds.
//
// This entry point encodes the baskets first; callers mining the same
// baskets repeatedly (several support thresholds, several algorithms)
// should build a Transactions once and mine it with
// MineGeneralizedEncoded instead.
func FPGrowth(txs [][]string, minSupport int) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	return fpGrowthEncoded(NewTransactions(txs), minSupport), nil
}

// fpGrowthEncoded is the integer-item FP-Growth core. Dictionary ids
// ascend lexicographically, so frequency ties break exactly as the
// historical string implementation broke them and the emitted itemsets
// are identical.
func fpGrowthEncoded(t *Transactions, minSupport int) []Itemset {
	tree := newFPTree()
	ordered := make([]int32, 0, 16)
	for i := 0; i < t.NumTx(); i++ {
		ordered = ordered[:0]
		for _, it := range t.tx(i) {
			if t.freq[it] >= minSupport {
				ordered = append(ordered, it)
			}
		}
		// Decreasing global frequency, id (= lexicographic) ascending
		// on ties: the canonical FP-tree insertion order.
		sort.SliceStable(ordered, func(a, b int) bool {
			fa, fb := t.freq[ordered[a]], t.freq[ordered[b]]
			if fa != fb {
				return fa > fb
			}
			return ordered[a] < ordered[b]
		})
		if len(ordered) > 0 {
			tree.insert(ordered, 1)
		}
	}

	var result []Itemset
	mineFP(tree, t, nil, minSupport, &result)
	SortItemsets(result)
	return result
}

// mineFP recursively mines tree, emitting itemsets suffix ∪ {item}.
func mineFP(tree *fpTree, t *Transactions, suffix []int32, minSupport int, out *[]Itemset) {
	// Deterministic item order for the recursion.
	items := make([]int32, 0, len(tree.headers))
	for it := range tree.headers {
		if tree.counts[it] >= minSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })

	for _, it := range items {
		support := tree.counts[it]
		pattern := make([]int32, 0, len(suffix)+1)
		pattern = append(pattern, suffix...)
		pattern = append(pattern, it)
		*out = append(*out, decodeItemset(t, pattern, support))

		// Conditional pattern base for `it`.
		cond := newFPTree()
		for node := tree.headers[it]; node != nil; node = node.next {
			// Path from parent up to the root, reversed.
			var path []int32
			for p := node.parent; p != nil && p.item != noItem; p = p.parent {
				path = append(path, p.item)
			}
			if len(path) == 0 {
				continue
			}
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			cond.insert(path, node.count)
		}
		// Prune infrequent items from the conditional tree by
		// rebuilding it with only frequent items.
		pruned := pruneFPTree(cond, minSupport)
		if len(pruned.headers) > 0 {
			mineFP(pruned, t, pattern, minSupport, out)
		}
	}
}

// decodeItemset maps a pattern of item ids back to a sorted Itemset.
func decodeItemset(t *Transactions, pattern []int32, support int) Itemset {
	items := make([]string, len(pattern))
	for i, id := range pattern {
		items[i] = t.dict[id]
	}
	sort.Strings(items)
	return Itemset{Items: items, Support: support}
}

// pruneFPTree rebuilds a conditional tree keeping only items whose
// conditional support clears the threshold.
func pruneFPTree(t *fpTree, minSupport int) *fpTree {
	keep := map[int32]bool{}
	for it, c := range t.counts {
		if c >= minSupport {
			keep[it] = true
		}
	}
	out := newFPTree()
	// Re-walk every root-to-node path of the old tree; enumerate leaf
	// paths by traversing children.
	var walk func(n *fpNode, path []int32, pathCount int)
	walk = func(n *fpNode, path []int32, pathCount int) {
		childSum := 0
		for _, c := range n.children {
			childSum += c.count
		}
		// The count attributable to paths ending at this node.
		own := n.count - childSum
		if n.item != noItem && own > 0 {
			kept := make([]int32, 0, len(path)+1)
			for _, it := range append(path, n.item) {
				if keep[it] {
					kept = append(kept, it)
				}
			}
			if len(kept) > 0 {
				out.insert(kept, own)
			}
		}
		next := path
		if n.item != noItem {
			next = append(path, n.item)
		}
		// Deterministic child order.
		childItems := make([]int32, 0, len(n.children))
		for it := range n.children {
			childItems = append(childItems, it)
		}
		sort.Slice(childItems, func(a, b int) bool { return childItems[a] < childItems[b] })
		for _, it := range childItems {
			walk(n.children[it], next, 0)
		}
	}
	walk(t.root, nil, 0)
	return out
}
