package fpm

import (
	"context"
	"fmt"
	"sort"
)

// Taxonomy maps an item to its more abstract parent (e.g. an exam code
// to its clinical category). Multiple levels form a forest; roots have
// no entry. MeTA-style generalized pattern mining raises items through
// this hierarchy so that patterns too rare at the leaf level can still
// surface at a coarser abstraction level.
type Taxonomy map[string]string

// Ancestors returns the chain of increasingly abstract ancestors of
// item (nearest first). Cycles are broken defensively.
func (t Taxonomy) Ancestors(item string) []string {
	var out []string
	seen := map[string]bool{item: true}
	for {
		parent, ok := t[item]
		if !ok || seen[parent] {
			return out
		}
		out = append(out, parent)
		seen[parent] = true
		item = parent
	}
}

// Level returns the abstraction level of an item: 0 for leaves that
// appear only as taxonomy keys (or unknown items), and 1 + the level
// of its deepest known descendant for generalized items. In practice
// it is len of the longest chain that reaches item, each chain cut
// where Ancestors cuts a cycle.
func (t Taxonomy) Level(item string) int {
	var m Miner
	m.index(t)
	m.levels()
	return m.level(item)
}

// GeneralizedItemset is a frequent itemset annotated with the highest
// abstraction level among its items.
type GeneralizedItemset struct {
	Itemset
	MaxLevel int `json:"max_level"`
}

// ExtendTransactions augments each transaction with the ancestors of
// its items, enabling single-pass mining across abstraction levels.
// The original transactions are not modified.
func (t Taxonomy) ExtendTransactions(txs [][]string) [][]string {
	out := make([][]string, len(txs))
	for i, tx := range txs {
		set := map[string]bool{}
		for _, it := range tx {
			set[it] = true
			for _, a := range t.Ancestors(it) {
				set[a] = true
			}
		}
		ext := make([]string, 0, len(set))
		for it := range set {
			ext = append(ext, it)
		}
		sort.Strings(ext)
		out[i] = ext
	}
	return out
}

// MineGeneralized mines frequent itemsets over the taxonomy-extended
// transactions (Srikant-Agrawal style generalized patterns, the
// mechanism behind MeTA's "different abstraction levels"). Itemsets
// that pair an item with one of its own ancestors are filtered out as
// trivially redundant. The baskets are extended as strings
// (ExtendTransactions) and mined with FP-Growth.
func MineGeneralized(txs [][]string, tax Taxonomy, minSupport int) ([]GeneralizedItemset, error) {
	return MineGeneralizedEncoded(NewTransactions(tax.ExtendTransactions(txs)), tax, minSupport)
}

// MineGeneralizedEncoded mines generalized itemsets over an
// already-extended shared encoding (Taxonomy.ExtendEncoded), the
// int-encoded counterpart of MineGeneralized: callers that analyze the
// same log repeatedly build the extended Transactions once and re-mine
// it at any support threshold without touching string baskets again.
// Results are identical to MineGeneralized over the same baskets and
// taxonomy (equivalence-tested). It mines on a fresh Miner.
func MineGeneralizedEncoded(ext *Transactions, tax Taxonomy, minSupport int) ([]GeneralizedItemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	if ext == nil {
		return nil, fmt.Errorf("fpm: nil transactions")
	}
	m := new(Miner)
	m.index(tax)
	m.lookup(ext.dict)
	sets, _ := m.mine(context.Background(), ext, minSupport) // never cancelled
	m.levels()
	var out []GeneralizedItemset
	for _, s := range sets {
		g := GeneralizedItemset{Itemset: s}
		for _, it := range s.Items {
			g.MaxLevel = max(g.MaxLevel, m.level(it))
		}
		out = append(out, g)
	}
	return out, nil
}

// ExtendEncoded returns a transaction database augmenting every basket
// of base with the ancestors of its items — the encoded counterpart of
// ExtendTransactions. The dictionary grows to the union of base's
// items and every reachable ancestor (still in lexicographic order, so
// the int-encoded miners keep emitting itemsets in the same order as
// the string path); base itself is not modified and is returned
// unchanged when the taxonomy is empty. It builds on a fresh Miner.
func (t Taxonomy) ExtendEncoded(base *Transactions) *Transactions {
	if len(t) == 0 {
		return base
	}
	m := new(Miner)
	m.index(t)
	ext, _ := m.extend(context.Background(), base.dict, base.ptr, base.items) // never cancelled
	return ext
}

// FilterByLevel keeps only generalized itemsets whose MaxLevel equals
// level — one abstraction "slice" of the pattern space.
func FilterByLevel(sets []GeneralizedItemset, level int) []GeneralizedItemset {
	var out []GeneralizedItemset
	for _, s := range sets {
		if s.MaxLevel == level {
			out = append(out, s)
		}
	}
	return out
}
