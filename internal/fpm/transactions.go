package fpm

import (
	"slices"
	"strings"
)

// Transactions is a shared, integer-encoded transaction database: the
// one-time normalization (dedup + sort), item dictionary and global
// frequency counts that every mining run needs, built once and reused
// across support thresholds — e.g. the A2 ablation sweeps three
// thresholds over one encoding instead of re-materializing baskets per
// run.
//
// Item ids are assigned in lexicographic name order, so id comparisons
// reproduce string comparisons exactly and the int-encoded miners emit
// the same itemsets as the string-based entry points.
type Transactions struct {
	dict  []string // item id → name, lexicographically ordered
	ptr   []int    // transaction i occupies items[ptr[i]:ptr[i+1]]
	items []int32  // sorted unique item ids per transaction, flat
	freq  []int    // per-id transaction frequency
}

// NewTransactions normalizes and encodes string baskets once. Empty
// items are dropped and duplicates within a basket collapse, exactly
// as the one-shot miners normalize.
func NewTransactions(txs [][]string) *Transactions {
	ids := map[string]int32{}
	var names []string
	ptr := make([]int32, 1, len(txs)+1)
	var items []int32
	for _, tx := range txs {
		for _, it := range tx {
			id, ok := ids[it]
			if !ok {
				id = int32(len(names))
				names = append(names, it)
				ids[it] = id
			}
			items = append(items, id)
		}
		ptr = append(ptr, int32(len(items)))
	}
	return EncodeTransactions(names, ptr, items)
}

// EncodeTransactions is NewTransactions over baskets already coded
// against a list of distinct names: basket i is items[ptr[i]:ptr[i+1]],
// each item an index into names. It hashes no strings, so a caller
// holding integer-keyed baskets (dataset.Encoded's visits) skips the
// string pass.
func EncodeTransactions(names []string, ptr, items []int32) *Transactions {
	// Dictionary over the non-empty names the baskets use, lexicographic.
	remap := make([]int32, len(names))
	for _, id := range items {
		remap[id] = 1
	}
	var order []int32
	for id, used := range remap {
		if used == 1 && names[id] != "" {
			order = append(order, int32(id))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	for id := range remap {
		remap[id] = -1
	}
	dict := make([]string, len(order))
	for id, old := range order {
		remap[old] = int32(id)
		dict[id] = names[old]
	}

	n := len(ptr) - 1
	t := &Transactions{
		dict:  dict,
		ptr:   make([]int, 1, n+1),
		items: make([]int32, 0, len(items)),
		freq:  make([]int, len(dict)),
	}
	mark := make([]bool, len(dict))
	ids := make([]int32, 0, 16)
	for i := 0; i < n; i++ {
		ids = ids[:0]
		for _, old := range items[ptr[i]:ptr[i+1]] {
			if id := remap[old]; id >= 0 && !mark[id] {
				mark[id] = true
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		for _, id := range ids {
			mark[id] = false
			t.freq[id]++
		}
		t.items = append(t.items, ids...)
		t.ptr = append(t.ptr, len(t.items))
	}
	return t
}

// NumTx reports the number of transactions.
func (t *Transactions) NumTx() int { return len(t.ptr) - 1 }

// tx returns the (sorted, unique) item ids of transaction i as a
// shared read-only view.
func (t *Transactions) tx(i int) []int32 { return t.items[t.ptr[i]:t.ptr[i+1]] }
