package fpm

import (
	"cmp"
	"fmt"
	"slices"
)

// node is one FP-tree node. Nodes live in one slice and point at each
// other by index; node 0 is the root, and none marks a missing link.
type node struct {
	item    int32 // dictionary id of the mined Transactions
	parent  int32
	child   int32 // first child
	sibling int32 // next child of the same parent
	next    int32 // next node of the same item: the header chain
	count   int32
}

const none int32 = -1

// fpTree is an FP-tree over flat arrays. The per-item arrays are sized
// to the Transactions dictionary: head is the first node of an item's
// header chain and total the item's support in this tree. items lists
// the items the tree holds, so reset clears only those.
type fpTree struct {
	nodes []node
	head  []int32
	total []int32
	items []int32
}

// reset empties the tree to a lone root over a dictionary of n items,
// keeping every array's storage.
func (t *fpTree) reset(n int) {
	for _, it := range t.items {
		t.head[it], t.total[it] = none, 0
	}
	t.items = t.items[:0]
	for len(t.head) < n {
		t.head, t.total = append(t.head, none), append(t.total, 0)
	}
	t.nodes = append(t.nodes[:0], node{item: none, parent: none, child: none, sibling: none, next: none})
}

// insert adds a path of items, root side first, with a count.
func (t *fpTree) insert(path []int32, count int32) {
	var n int32
	for _, it := range path {
		c, last := t.nodes[n].child, none
		for c != none && t.nodes[c].item != it {
			c, last = t.nodes[c].sibling, c
		}
		if c == none {
			// Appended after the last sibling, so the children made
			// first, from the most common paths, are found first.
			c = int32(len(t.nodes))
			if t.head[it] == none {
				t.items = append(t.items, it)
			}
			t.nodes = append(t.nodes, node{item: it, parent: n, child: none, sibling: none, next: t.head[it]})
			if last == none {
				t.nodes[n].child = c
			} else {
				t.nodes[last].sibling = c
			}
			t.head[it] = c
		}
		t.nodes[c].count += count
		t.total[it] += count
		n = c
	}
}

// tree returns the depth-d tree reset for the mined dictionary, making
// it on first use.
func (m *Miner) tree(d int) *fpTree {
	if d == len(m.trees) {
		m.trees = append(m.trees, &fpTree{})
	}
	m.trees[d].reset(len(m.mined.dict))
	return m.trees[d]
}

// FPGrowth mines all itemsets with support >= minSupport using the
// FP-Growth algorithm (FP-tree plus recursive conditional trees). Its
// output is set-equal to Apriori's; it is the faster choice at low
// support thresholds.
//
// The trees are flat: one slice of nodes linked by int32 index (item,
// count, parent, first child, next sibling, next node of the same
// item), and per-item header heads and supports sized to the item
// dictionary. Each recursion depth reuses one tree, and a conditional
// tree is built directly: the prefix paths' item supports are counted
// along the header chain first, and only the items that clear
// minSupport are inserted. This entry point encodes the baskets and
// mines them on a fresh Miner; a Miner kept across runs also reuses
// the trees and the database from one run to the next, and then a run
// allocates little beyond its output.
func FPGrowth(txs [][]string, minSupport int) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	return fpGrowthEncoded(NewTransactions(txs), minSupport), nil
}

// fpGrowthEncoded mines t with no taxonomy on a fresh Miner.
func fpGrowthEncoded(t *Transactions, minSupport int) []Itemset {
	m := new(Miner)
	m.index(nil)
	m.lookup(t.dict)
	return m.mine(t, minSupport)
}

// mine runs FP-Growth over t, whose dictionary m.order indexes, leaving
// out itemsets that pair an item with one of its ancestors. Itemsets
// are emitted in the recursion's order and then sorted by SortItemsets,
// a total order over distinct itemsets, so the result does not depend
// on the order of any tree's children or header chains.
func (m *Miner) mine(t *Transactions, minSupport int) []Itemset {
	m.mined, m.minSupport = t, int32(minSupport)
	m.cond = fill(m.cond, len(t.dict), 0)
	tree := m.tree(0)
	// Decreasing global frequency, id ascending on ties: the FP-tree
	// insertion order.
	byFreq := func(a, b int32) int {
		if c := cmp.Compare(t.freq[b], t.freq[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	for i := 0; i < t.NumTx(); i++ {
		m.path = m.path[:0]
		for _, it := range t.tx(i) {
			if t.freq[it] >= m.minSupport {
				m.path = append(m.path, it)
			}
		}
		slices.SortFunc(m.path, byFreq)
		tree.insert(m.path, 1)
	}
	m.grow(0)
	out := m.out
	m.out, m.mined = nil, nil
	SortItemsets(out)
	return out
}

// grow emits suffix ∪ {item} for every item of the depth-d tree, each
// of which clears minSupport, and recurses into its conditional tree.
// An item that is an ancestor or a descendant of a suffix item is
// skipped with its whole subtree: every itemset holding both is
// trivially redundant and left out.
func (m *Miner) grow(d int) {
	tree := m.trees[d]
	for _, it := range tree.items {
		if m.pairsAncestor(it, m.pattern[:d]) {
			continue
		}
		m.pattern = append(m.pattern[:d], it)
		m.emit(tree.total[it])
		if m.conditional(tree, it, m.tree(d+1)) {
			m.grow(d + 1)
		}
	}
}

// pairsAncestor reports whether item it is an ancestor or a descendant
// of an item of suffix.
func (m *Miner) pairsAncestor(it int32, suffix []int32) bool {
	if len(suffix) == 0 {
		return false
	}
	if m.climb(m.order[it], func(a, _ int32) bool { return slices.Contains(suffix, m.nodes[a].dict) }) {
		return true
	}
	for _, s := range suffix {
		if m.climb(m.order[s], func(a, _ int32) bool { return m.nodes[a].dict == it }) {
			return true
		}
	}
	return false
}

// emit appends the current pattern as a sorted Itemset.
func (m *Miner) emit(support int32) {
	items := make([]string, len(m.pattern))
	for i, id := range m.pattern {
		items[i] = m.mined.dict[id]
	}
	slices.Sort(items)
	m.out = append(m.out, Itemset{Items: items, Support: int(support)})
}

// conditional builds into c, a reset tree, the conditional FP-tree of
// item it in tree: every prefix path of it's nodes, weighted by the
// node's count and cut to the items whose support over those paths
// clears minSupport. It reports whether c holds any item.
func (m *Miner) conditional(tree *fpTree, it int32, c *fpTree) bool {
	nodes := tree.nodes
	for n := tree.head[it]; n != none; n = nodes[n].next {
		count := nodes[n].count
		for p := nodes[n].parent; p != 0; p = nodes[p].parent {
			x := nodes[p].item
			if m.cond[x] == 0 {
				m.touched = append(m.touched, x)
			}
			m.cond[x] += count
		}
	}
	if slices.ContainsFunc(m.touched, func(x int32) bool { return m.cond[x] >= m.minSupport }) {
		for n := tree.head[it]; n != none; n = nodes[n].next {
			m.path = m.path[:0]
			for p := nodes[n].parent; p != 0; p = nodes[p].parent {
				if x := nodes[p].item; m.cond[x] >= m.minSupport {
					m.path = append(m.path, x)
				}
			}
			slices.Reverse(m.path)
			c.insert(m.path, nodes[n].count)
		}
	}
	for _, x := range m.touched {
		m.cond[x] = 0
	}
	m.touched = m.touched[:0]
	return len(c.items) > 0
}
