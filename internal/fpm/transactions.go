package fpm

import "context"

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
	ptr   []int32  // transaction i occupies items[ptr[i]:ptr[i+1]]
	items []int32  // sorted unique item ids per transaction, flat
	freq  []int32  // per-id transaction frequency
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
// each item an index into names. It hashes each used name once, not
// every basket item, so a caller holding integer-keyed baskets
// (dataset.Encoded's visits) skips the string pass. It builds on a
// fresh Miner; Miner.Mine builds and mines the taxonomy-extended
// database in one pass.
func EncodeTransactions(names []string, ptr, items []int32) *Transactions {
	m := new(Miner)
	m.index(nil)
	t, _ := m.extend(context.Background(), names, ptr, items) // never cancelled
	return t
}

// NumTx reports the number of transactions.
func (t *Transactions) NumTx() int { return len(t.ptr) - 1 }

// tx returns the (sorted, unique) item ids of transaction i as a
// shared read-only view.
func (t *Transactions) tx(i int) []int32 { return t.items[t.ptr[i]:t.ptr[i+1]] }
