package fpm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// node is one FP-tree node. Nodes live in one slice and point at each
// other by index; node 0 is the root, and none marks a missing link.
type node struct {
	item    int32 // dictionary id of the mined Transactions
	parent  int32
	child   int32 // first child
	sibling int32 // next child of the same parent
	next    int32 // next node of the same item: the header chain
	count   int
}

const none int32 = -1

// fpTree is an FP-tree over flat arrays. The per-item arrays are sized
// to the Transactions dictionary: head is the first node of an item's
// header chain and total the item's support in this tree. items lists
// the items the tree holds, so reset clears only those.
type fpTree struct {
	nodes []node
	head  []int32
	total []int
	items []int32
}

// reset empties the tree to a lone root, keeping every array's storage.
func (t *fpTree) reset() {
	for _, it := range t.items {
		t.head[it], t.total[it] = none, 0
	}
	t.items = t.items[:0]
	t.nodes = append(t.nodes[:0], node{item: none, parent: none, child: none, sibling: none, next: none})
}

// insert adds a path of items, root side first, with a count.
func (t *fpTree) insert(path []int32, count int) {
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

// miner holds one FP-Growth run's reused storage.
type miner struct {
	tx         *Transactions
	minSupport int
	trees      []*fpTree // trees[d] is the tree mined at recursion depth d
	cond       []int     // per item: support over a conditional pattern base; zero between uses
	touched    []int32   // the items cond holds a count for
	path       []int32
	pattern    []int32 // pattern[:d] is the suffix the tree at depth d is conditioned on
	out        []Itemset
}

// tree returns the reset tree of depth d, making it on first use.
func (m *miner) tree(d int) *fpTree {
	if d == len(m.trees) {
		t := &fpTree{head: make([]int32, len(m.tx.dict)), total: make([]int, len(m.tx.dict))}
		for i := range t.head {
			t.head[i] = none
		}
		m.trees = append(m.trees, t)
	}
	m.trees[d].reset()
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
// minSupport are inserted. A run allocates little beyond its output.
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

// fpGrowthEncoded is the integer-item FP-Growth core. Itemsets are
// emitted in the recursion's order and then sorted by SortItemsets, a
// total order over distinct itemsets, so the result does not depend on
// the order of any tree's children or header chains.
func fpGrowthEncoded(t *Transactions, minSupport int) []Itemset {
	m := &miner{tx: t, minSupport: minSupport, cond: make([]int, len(t.dict))}
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
			if t.freq[it] >= minSupport {
				m.path = append(m.path, it)
			}
		}
		slices.SortFunc(m.path, byFreq)
		tree.insert(m.path, 1)
	}
	m.mine(0)
	SortItemsets(m.out)
	return m.out
}

// mine emits suffix ∪ {item} for every item of the depth-d tree, each
// of which clears minSupport, and recurses into its conditional tree.
func (m *miner) mine(d int) {
	tree := m.trees[d]
	for _, it := range tree.items {
		m.pattern = append(m.pattern[:d], it)
		m.out = append(m.out, decodeItemset(m.tx, m.pattern, tree.total[it]))
		if m.conditional(tree, it, m.tree(d+1)) {
			m.mine(d + 1)
		}
	}
}

// conditional builds into c, a reset tree, the conditional FP-tree of
// item it in tree: every prefix path of it's nodes, weighted by the
// node's count and cut to the items whose support over those paths
// clears minSupport. It reports whether c holds any item.
func (m *miner) conditional(tree *fpTree, it int32, c *fpTree) bool {
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

// decodeItemset maps a pattern of item ids back to a sorted Itemset.
func decodeItemset(t *Transactions, pattern []int32, support int) Itemset {
	items := make([]string, len(pattern))
	for i, id := range pattern {
		items[i] = t.dict[id]
	}
	sort.Strings(items)
	return Itemset{Items: items, Support: support}
}
