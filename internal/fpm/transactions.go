package fpm

import (
	"fmt"
	"sort"

	"adahealth/internal/vec"
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
	// Dictionary over all distinct items, lexicographic.
	seen := map[string]int32{}
	for _, tx := range txs {
		for _, it := range tx {
			if it != "" {
				seen[it] = 0
			}
		}
	}
	dict := make([]string, 0, len(seen))
	for it := range seen {
		dict = append(dict, it)
	}
	sort.Strings(dict)
	for id, it := range dict {
		seen[it] = int32(id)
	}

	t := &Transactions{
		dict: dict,
		ptr:  make([]int, 1, len(txs)+1),
		freq: make([]int, len(dict)),
	}
	mark := make([]bool, len(dict))
	ids := make([]int32, 0, 16)
	for _, tx := range txs {
		ids = ids[:0]
		for _, it := range tx {
			if it == "" {
				continue
			}
			id := seen[it]
			if !mark[id] {
				mark[id] = true
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			mark[id] = false
			t.freq[id]++
		}
		t.items = append(t.items, ids...)
		t.ptr = append(t.ptr, len(t.items))
	}
	return t
}

// TransactionsFromCSR builds patient-level baskets straight from a CSR
// matrix (e.g. the cached vsm.Matrix.Sparse view): one basket per row,
// containing the feature names of the row's nonzero columns. No dense
// rows or string baskets are materialized in between — the CSR's
// column indices are translated to dictionary ids in one pass.
func TransactionsFromCSR(m *vec.CSRMatrix, features []string) (*Transactions, error) {
	if m == nil {
		return nil, fmt.Errorf("fpm: nil CSR matrix")
	}
	if len(features) != m.NumCols() {
		return nil, fmt.Errorf("fpm: %d feature names for %d CSR columns",
			len(features), m.NumCols())
	}
	// Dictionary in lexicographic order; colToID maps CSR columns onto
	// dictionary ids.
	dict := append([]string(nil), features...)
	sort.Strings(dict)
	nameToID := make(map[string]int32, len(dict))
	for id, it := range dict {
		if _, dup := nameToID[it]; dup {
			return nil, fmt.Errorf("fpm: duplicate feature name %q", it)
		}
		nameToID[it] = int32(id)
	}
	colToID := make([]int32, len(features))
	for col, name := range features {
		colToID[col] = nameToID[name]
	}

	n := m.NumRows()
	t := &Transactions{
		dict:  dict,
		ptr:   make([]int, 1, n+1),
		items: make([]int32, 0, len(m.Values)),
		freq:  make([]int, len(dict)),
	}
	ids := make([]int32, 0, 32)
	for i := 0; i < n; i++ {
		_, cols := m.RowView(i)
		ids = ids[:0]
		for _, c := range cols {
			ids = append(ids, colToID[c])
		}
		// Column order is ascending but dictionary order may differ.
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			t.freq[id]++
		}
		t.items = append(t.items, ids...)
		t.ptr = append(t.ptr, len(t.items))
	}
	return t, nil
}

// NumTx reports the number of transactions.
func (t *Transactions) NumTx() int { return len(t.ptr) - 1 }

// NumItems reports the dictionary size.
func (t *Transactions) NumItems() int { return len(t.dict) }

// Item returns the name behind an item id.
func (t *Transactions) Item(id int32) string { return t.dict[id] }

// tx returns the (sorted, unique) item ids of transaction i as a
// shared read-only view.
func (t *Transactions) tx(i int) []int32 { return t.items[t.ptr[i]:t.ptr[i+1]] }

// FPGrowth mines all itemsets with support >= minSupport over the
// shared encoding (see FPGrowth for the algorithm); repeated calls at
// different thresholds reuse the same dictionary, frequencies and
// encoded baskets.
func (t *Transactions) FPGrowth(minSupport int) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	return fpGrowthEncoded(t, minSupport), nil
}
