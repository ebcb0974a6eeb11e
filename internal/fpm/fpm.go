// Package fpm implements the frequent-pattern discovery substrate of
// ADA-HEALTH (the paper's reference [2], MeTA): FP-Growth
// frequent-itemset mining over examination "baskets" (visits),
// association-rule generation, and taxonomy-aware generalized patterns
// that characterize treatments at different abstraction levels.
//
// Baskets are mined as integer item ids (Transactions). The FP-trees
// are flat: every node (item, count, parent, first child, next sibling,
// next node of the same item) sits in one slice and links to others by
// int32 index, and each item's header-chain head and support sit in
// arrays sized to the item dictionary. One tree per recursion depth is
// reused for every conditional tree built at that depth.
package fpm

import (
	"fmt"
	"sort"
	"strings"
)

// Itemset is a frequent itemset with its absolute support count.
// Items are kept sorted lexicographically.
type Itemset struct {
	Items   []string `json:"items"`
	Support int      `json:"support"`
}

// Key returns a canonical string identity for the itemset.
func (s Itemset) Key() string { return strings.Join(s.Items, "\x1f") }

func (s Itemset) String() string {
	return fmt.Sprintf("{%s} (support=%d)", strings.Join(s.Items, ", "), s.Support)
}

// SortItemsets orders itemsets by size, then support descending, then
// key — a stable, deterministic report order.
func SortItemsets(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		if len(sets[i].Items) != len(sets[j].Items) {
			return len(sets[i].Items) < len(sets[j].Items)
		}
		if sets[i].Support != sets[j].Support {
			return sets[i].Support > sets[j].Support
		}
		return sets[i].Key() < sets[j].Key()
	})
}
