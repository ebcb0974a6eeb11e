package docstore

import (
	"sort"
)

// Order selects a sort direction for FindSorted.
type Order int

const (
	// Asc sorts ascending by the sort field.
	Asc Order = iota
	// Desc sorts descending.
	Desc
)

// FindSorted returns copies of the documents matching filter (nil
// matches all), ordered by the given field and truncated to limit
// (limit <= 0 returns everything). Numeric fields compare numerically,
// strings lexicographically; documents missing the field sort last
// under either direction.
//
// Results are fully deterministic: documents whose sort keys compare
// equal are ordered by ascending document ID (the documented
// tie-break), and pairs that cannot be compared at all — mixed types,
// or both missing the field — fall back to insertion order via a
// stable sort. Equal keys therefore yield the same result order on
// every store, including one rebuilt from a WAL replay.
func (c *Collection) FindSorted(f Filter, field string, order Order, limit int) []Document {
	// collect returns insertion order, so the stable sort's fallback
	// for incomparable pairs is insertion order, as documented; only
	// the documents kept past limit are copied.
	entries := c.collect(f)
	sort.SliceStable(entries, func(i, j int) bool {
		return docLess(entries[i].doc, entries[j].doc, field, order)
	})
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	return copies(entries)
}

// SortDocuments stable-sorts an already-retrieved document slice (in
// place) under exactly FindSorted's ordering contract — field order,
// document-ID tie-break on equal keys, input order for missing or
// incomparable keys — and truncates to limit. It lets callers compose
// the deterministic sort with a cheaper retrieval than a full scan
// (e.g. an indexed FindEq, whose results are in insertion order).
func SortDocuments(docs []Document, field string, order Order, limit int) []Document {
	sort.SliceStable(docs, func(i, j int) bool {
		return docLess(docs[i], docs[j], field, order)
	})
	if limit > 0 && len(docs) > limit {
		docs = docs[:limit]
	}
	if len(docs) == 0 {
		return nil
	}
	return docs
}

// docLess is the one ordering rule of FindSorted and SortDocuments:
// compare by field (numeric or string), documents missing the field
// last, equal keys tie-broken by document ID, incomparable pairs left
// to the surrounding stable sort's input order.
func docLess(a, b Document, field string, order Order) bool {
	av, aok := a[field]
	bv, bok := b[field]
	switch {
	case !aok && !bok:
		return false // both missing: keep input order
	case !aok:
		return false // a missing: sorts after b
	case !bok:
		return true // b missing: a first
	}
	cmp, comparable := compareValues(av, bv)
	if !comparable {
		return false // mixed types: keep input order
	}
	if cmp == 0 {
		return a.ID() < b.ID() // documented tie-break
	}
	if order == Desc {
		return cmp > 0
	}
	return cmp < 0
}

// compareValues three-way-compares two field values. Numeric values
// compare numerically, strings lexicographically; mixed or unsupported
// types are incomparable.
func compareValues(a, b any) (cmp int, comparable bool) {
	af, aIsNum := toFloat(a)
	bf, bIsNum := toFloat(b)
	if aIsNum && bIsNum {
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	as, aIsStr := a.(string)
	bs, bIsStr := b.(string)
	if aIsStr && bIsStr {
		switch {
		case as < bs:
			return -1, true
		case as > bs:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}
