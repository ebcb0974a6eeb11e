package fpm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Miner mines generalized itemsets in storage it keeps from one run to
// the next, so a long-lived caller (the pipeline's patterns stage,
// through the engine's free list) pays for it once. It owns everything
// a run allocates except the itemsets it returns:
//
//   - the taxonomy as a node table: every name the taxonomy or the
//     baskets mention and its parent;
//   - the taxonomy-extended transaction database, built in one pass
//     from the coded baskets;
//   - one FP-tree per recursion depth with its per-item arrays, and the
//     conditional-base scratch.
//
// A run resets that storage instead of allocating it again, so mining
// a database of a shape the Miner has mined before allocates little
// more than the output. Reuse is invisible in the results. A Miner
// holds no reference to a run's names once Mine returns. It is not
// safe for concurrent use; the zero value is ready. The package's
// one-shot entry points (FPGrowth, EncodeTransactions,
// Taxonomy.ExtendEncoded, MineGeneralizedEncoded) each run a fresh
// Miner, so there is one mining code path.
type Miner struct {
	// The node table: ids maps a name to its node.
	ids   map[string]int32
	nodes []taxNode
	walks int32 // climbs so far this run; taxNode.seen marks the latest

	leaf   []int32 // per basket name: its node, or none if unused or empty
	order  []int32 // per dictionary id of the mined database: its node
	tx     Transactions
	mark   []bool  // per dictionary id: in the basket being extended
	basket []int32 // the basket being extended

	// FP-Growth state.
	mined      *Transactions
	minSupport int32
	trees      []*fpTree // trees[d] is the tree mined at recursion depth d
	cond       []int32   // per item: support over a conditional pattern base; zero between uses
	touched    []int32   // the items cond holds a count for
	path       []int32
	pattern    []int32 // pattern[:d] is the suffix the tree at depth d is conditioned on
	out        []Itemset
}

// taxNode is one name of the taxonomy or the baskets.
type taxNode struct {
	name  string
	up    int32 // parent node, or none
	level int32 // abstraction level, as Taxonomy.Level, once levels has run
	seen  int32 // the last climb that visited the node
	dict  int32 // dictionary id in the mined database, or none
}

// Mine returns the generalized itemsets with support >= minSupport of
// the baskets coded against names — basket i is items[ptr[i]:ptr[i+1]],
// each item an index into names, empty names dropped — each extended
// with its items' ancestors in tax. Itemsets that pair an item with one
// of its own ancestors are left out. The result is the Itemsets of
// MineGeneralizedEncoded over tax.ExtendEncoded(EncodeTransactions(
// names, ptr, items)), in the same order (SortItemsets), without their
// level annotation, and belongs to the caller. A run checks ctx at
// every basket it extends or inserts and every item it grows a pattern
// with, and returns ctx.Err() once ctx is done; the Miner is then ready
// for its next run.
func (m *Miner) Mine(ctx context.Context, names []string, ptr, items []int32, tax Taxonomy, minSupport int) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	m.index(tax)
	t, err := m.extend(ctx, names, ptr, items)
	var out []Itemset
	if err == nil {
		out, err = m.mine(ctx, t, minSupport)
	}
	// Drop the run's names so a pooled Miner does not keep them alive.
	clear(m.ids)
	clear(m.nodes)
	clear(m.tx.dict)
	return out, err
}

// index rebuilds the node table from tax.
func (m *Miner) index(tax Taxonomy) {
	if m.ids == nil {
		m.ids = make(map[string]int32, len(tax))
	}
	clear(m.ids)
	m.nodes, m.walks = m.nodes[:0], 0
	for child, parent := range tax {
		c := m.node(child)
		m.nodes[c].up = m.node(parent)
	}
}

// levels computes every node's abstraction level, once for the whole
// taxonomy: an item's level is its distance from its farthest
// descendant, the longest chain that reaches it, every chain cut where
// Ancestors cuts a cycle.
func (m *Miner) levels() {
	for x := range int32(len(m.nodes)) {
		m.climb(x, func(a, d int32) bool {
			m.nodes[a].level = max(m.nodes[a].level, d)
			return false
		})
	}
}

// level returns the abstraction level of item once levels has run.
func (m *Miner) level(item string) int {
	if x, ok := m.ids[item]; ok {
		return int(m.nodes[x].level)
	}
	return 0
}

// node returns the node named name, adding it without a parent.
func (m *Miner) node(name string) int32 {
	x, ok := m.ids[name]
	if !ok {
		x = int32(len(m.nodes))
		m.ids[name] = x
		m.nodes = append(m.nodes, taxNode{name: name, up: none, dict: none})
	}
	return x
}

// climb calls f with each ancestor of node x and its distance from x,
// nearest first, until f returns true, and reports whether it did.
// Like Taxonomy.Ancestors it stops before a node the climb has
// visited, so a cycle ends it.
func (m *Miner) climb(x int32, f func(a, d int32) bool) bool {
	if m.walks == math.MaxInt32 {
		for i := range m.nodes {
			m.nodes[i].seen = 0
		}
		m.walks = 0
	}
	m.walks++
	m.nodes[x].seen = m.walks
	for a, d := m.nodes[x].up, int32(1); a != none && m.nodes[a].seen != m.walks; a, d = m.nodes[a].up, d+1 {
		m.nodes[a].seen = m.walks
		if f(a, d) {
			return true
		}
	}
	return false
}

// extend builds the taxonomy-extended database of the coded baskets
// into the Miner's own Transactions: its dictionary is every used
// basket name and each of its ancestors, in lexicographic order, and
// each basket holds its items and their ancestors, sorted and unique.
// A done ctx stops it at the next basket with ctx.Err().
func (m *Miner) extend(ctx context.Context, names []string, ptr, items []int32) (*Transactions, error) {
	m.leaf = fill(m.leaf, len(names), none)
	for _, id := range items {
		if m.leaf[id] == none && names[id] != "" {
			m.leaf[id] = m.node(names[id])
		}
	}
	// The dictionary: the nodes the used names reach. The set is closed
	// under parents after every walk, so a walk stops at the first node
	// already in it.
	m.order = m.order[:0]
	for _, x := range m.leaf {
		for ; x != none && m.nodes[x].dict == none; x = m.nodes[x].up {
			m.nodes[x].dict = 0
			m.order = append(m.order, x)
		}
	}
	slices.SortFunc(m.order, func(a, b int32) int { return strings.Compare(m.nodes[a].name, m.nodes[b].name) })
	t := &m.tx
	t.dict = t.dict[:0]
	for id, x := range m.order {
		m.nodes[x].dict = int32(id)
		t.dict = append(t.dict, m.nodes[x].name)
	}

	t.freq = fill(t.freq, len(t.dict), 0)
	t.ptr = append(t.ptr[:0], 0)
	t.items = t.items[:0]
	m.mark = fill(m.mark, len(t.dict), false)
	for i := range len(ptr) - 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.basket = m.basket[:0]
		for _, old := range items[ptr[i]:ptr[i+1]] {
			// An item and its ancestors, up to the first one this
			// basket already holds: that one's ancestors are in too.
			for x := m.leaf[old]; x != none; x = m.nodes[x].up {
				id := m.nodes[x].dict
				if m.mark[id] {
					break
				}
				m.mark[id] = true
				m.basket = append(m.basket, id)
			}
		}
		slices.Sort(m.basket)
		for _, id := range m.basket {
			m.mark[id] = false
			t.freq[id]++
		}
		t.items = append(t.items, m.basket...)
		t.ptr = append(t.ptr, int32(len(t.items)))
	}
	return t, nil
}

// lookup points the node table at an already-built database: dict's
// names become its dictionary.
func (m *Miner) lookup(dict []string) {
	m.order = m.order[:0]
	for id, name := range dict {
		x := m.node(name)
		m.nodes[x].dict = int32(id)
		m.order = append(m.order, x)
	}
}

// fill returns s resized to n with every element set to v, reusing its
// storage when it is large enough.
func fill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
