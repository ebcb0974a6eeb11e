package fpm

import (
	"fmt"
	"slices"
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
// it is len of the longest chain that reaches item.
func (t Taxonomy) Level(item string) int {
	level := 0
	for child, parent := range t {
		if parent != item {
			continue
		}
		if l := t.Level(child) + 1; l > level {
			level = l
		}
	}
	return level
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
// trivially redundant. The miner is FP-Growth.
func MineGeneralized(txs [][]string, tax Taxonomy, minSupport int) ([]GeneralizedItemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	ext := tax.ExtendTransactions(txs)
	flat, err := FPGrowth(ext, minSupport)
	if err != nil {
		return nil, err
	}
	return annotateGeneralized(flat, tax), nil
}

// MineGeneralizedEncoded mines generalized itemsets over an
// already-extended shared encoding (Taxonomy.ExtendEncoded), the
// int-encoded counterpart of MineGeneralized: callers that analyze the
// same log repeatedly build the extended Transactions once and re-mine
// it at any support threshold without touching string baskets again.
// Results are identical to MineGeneralized over the same baskets and
// taxonomy (equivalence-tested).
func MineGeneralizedEncoded(ext *Transactions, tax Taxonomy, minSupport int) ([]GeneralizedItemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	if ext == nil {
		return nil, fmt.Errorf("fpm: nil transactions")
	}
	return annotateGeneralized(fpGrowthEncoded(ext, minSupport), tax), nil
}

// annotateGeneralized drops itemsets pairing an item with one of its
// own ancestors and annotates the rest with their abstraction level.
func annotateGeneralized(flat []Itemset, tax Taxonomy) []GeneralizedItemset {
	levelCache := map[string]int{}
	levelOf := func(item string) int {
		if l, ok := levelCache[item]; ok {
			return l
		}
		l := tax.Level(item)
		levelCache[item] = l
		return l
	}

	var out []GeneralizedItemset
	for _, s := range flat {
		if containsAncestorPair(s.Items, tax) {
			continue
		}
		maxLevel := 0
		for _, it := range s.Items {
			if l := levelOf(it); l > maxLevel {
				maxLevel = l
			}
		}
		out = append(out, GeneralizedItemset{Itemset: s, MaxLevel: maxLevel})
	}
	return out
}

// ExtendEncoded returns a transaction database augmenting every basket
// of base with the ancestors of its items — the encoded counterpart of
// ExtendTransactions. The dictionary grows to the union of base's
// items and every reachable ancestor (still in lexicographic order, so
// the int-encoded miners keep emitting itemsets in the same order as
// the string path); base itself is not modified and is returned
// unchanged when the taxonomy is empty.
func (t Taxonomy) ExtendEncoded(base *Transactions) *Transactions {
	if len(t) == 0 {
		return base
	}
	// Union dictionary: base items plus all their ancestors.
	names := make(map[string]bool, len(base.dict))
	for _, it := range base.dict {
		names[it] = true
		for _, a := range t.Ancestors(it) {
			names[a] = true
		}
	}
	dict := make([]string, 0, len(names))
	for it := range names {
		dict = append(dict, it)
	}
	sort.Strings(dict)
	nameID := make(map[string]int32, len(dict))
	for id, it := range dict {
		nameID[it] = int32(id)
	}
	// Per old item id: its new id and its ancestors' new ids.
	remap := make([]int32, len(base.dict))
	ancestors := make([][]int32, len(base.dict))
	for old, it := range base.dict {
		remap[old] = nameID[it]
		as := t.Ancestors(it)
		if len(as) == 0 {
			continue
		}
		ids := make([]int32, len(as))
		for i, a := range as {
			ids[i] = nameID[a]
		}
		ancestors[old] = ids
	}

	// Every basket grows by at most its items' ancestors.
	size := len(base.items)
	for _, old := range base.items {
		size += len(ancestors[old])
	}
	n := base.NumTx()
	out := &Transactions{
		dict:  dict,
		ptr:   make([]int, 1, n+1),
		items: make([]int32, 0, size),
		freq:  make([]int, len(dict)),
	}
	mark := make([]bool, len(dict))
	ids := make([]int32, 0, 32)
	for i := 0; i < n; i++ {
		ids = ids[:0]
		for _, old := range base.tx(i) {
			if nid := remap[old]; !mark[nid] {
				mark[nid] = true
				ids = append(ids, nid)
			}
			for _, a := range ancestors[old] {
				if !mark[a] {
					mark[a] = true
					ids = append(ids, a)
				}
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			mark[id] = false
			out.freq[id]++
		}
		out.items = append(out.items, ids...)
		out.ptr = append(out.ptr, len(out.items))
	}
	return out
}

// containsAncestorPair reports whether any item in the set is an
// ancestor of another item in the set.
func containsAncestorPair(items []string, tax Taxonomy) bool {
	set := make(map[string]bool, len(items))
	for _, it := range items {
		set[it] = true
	}
	for _, it := range items {
		for _, a := range tax.Ancestors(it) {
			if set[a] {
				return true
			}
		}
	}
	return false
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
