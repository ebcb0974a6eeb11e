package fpm

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"adahealth/internal/synth"
)

// BenchmarkFPMAblation compares Apriori and FP-Growth over the visit
// baskets of the paper-scale dataset at low support (the A2 ablation).
// The FP-Growth runs share one Transactions encoding, built once
// outside the measured loops, and mine it with no taxonomy, so their
// per-threshold cost is pure mining; Apriori, the test reference,
// normalizes its string baskets on every call. The Encode
// sub-benchmark prices the shared one-time step itself.
func BenchmarkFPMAblation(b *testing.B) {
	log, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var visits [][]string
	for _, v := range log.Visits() {
		visits = append(visits, v.ExamCodes)
	}
	shared := NewTransactions(visits)
	b.Run("Encode/visits", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewTransactions(visits)
		}
	})
	for _, suppFrac := range []float64{0.04, 0.02, 0.01} {
		minSupp := max(int(suppFrac*float64(len(visits))), 2)
		b.Run(fmt.Sprintf("Apriori/supp=%.0f%%", suppFrac*100), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Apriori(visits, minSupp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("FPGrowth/supp=%.0f%%", suppFrac*100), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MineGeneralizedEncoded(shared, nil, minSupp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Apriori mines all itemsets with support >= minSupport (absolute
// count, >= 1) using level-wise candidate generation with subset
// pruning. It is the reference the FP-Growth miner is tested against;
// the pipeline mines with FP-Growth over a shared Transactions.
func Apriori(txs [][]string, minSupport int) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpm: minSupport must be >= 1, got %d", minSupport)
	}
	norm := make([][]string, len(txs))
	for i, tx := range txs {
		norm[i] = normalizeTx(tx)
	}
	return aprioriNorm(norm, minSupport), nil
}

// aprioriNorm is the Apriori core over already-normalized (sorted,
// deduplicated) transactions.
func aprioriNorm(norm [][]string, minSupport int) []Itemset {
	// L1.
	counts := map[string]int{}
	for _, tx := range norm {
		for _, it := range tx {
			counts[it]++
		}
	}
	var result []Itemset
	var current []Itemset
	for it, c := range counts {
		if c >= minSupport {
			current = append(current, Itemset{Items: []string{it}, Support: c})
		}
	}
	// The level-wise join below requires lexicographic order; the
	// final result is re-sorted for reporting at the end.
	sortByKey(current)
	result = append(result, current...)

	frequent := map[string]bool{}
	for _, s := range current {
		frequent[s.Key()] = true
	}

	for level := 2; len(current) > 0; level++ {
		// Candidate generation: join sets sharing a (level-2)-prefix.
		candidates := map[string][]string{}
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				a, b := current[i].Items, current[j].Items
				if !samePrefix(a, b, level-2) {
					continue
				}
				// With lexicographically ordered itemsets, the pair
				// (i < j) sharing a prefix has a[level-2] < b[level-2],
				// so appending b's last item keeps the candidate sorted.
				last := b[level-2]
				if last <= a[level-2] {
					continue // identical sets or out of order: skip
				}
				cand := make([]string, level)
				copy(cand, a)
				cand[level-1] = last
				if !allSubsetsFrequent(cand, frequent) {
					continue
				}
				candidates[strings.Join(cand, "\x1f")] = cand
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Support counting.
		support := make(map[string]int, len(candidates))
		for _, tx := range norm {
			if len(tx) < level {
				continue
			}
			txSet := make(map[string]bool, len(tx))
			for _, it := range tx {
				txSet[it] = true
			}
			for key, cand := range candidates {
				ok := true
				for _, it := range cand {
					if !txSet[it] {
						ok = false
						break
					}
				}
				if ok {
					support[key]++
				}
			}
		}
		current = current[:0]
		for key, c := range support {
			if c >= minSupport {
				items := candidates[key]
				current = append(current, Itemset{Items: items, Support: c})
				frequent[key] = true
			}
		}
		sortByKey(current)
		result = append(result, current...)
	}
	SortItemsets(result)
	return result
}

// sortByKey orders itemsets lexicographically by canonical key, the
// order the Apriori prefix join requires.
func sortByKey(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Key() < sets[j].Key() })
}

func samePrefix(a, b []string, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori pruning property: every
// (k-1)-subset of a candidate must be frequent.
func allSubsetsFrequent(cand []string, frequent map[string]bool) bool {
	if len(cand) <= 2 {
		return true // 1-subsets checked by construction
	}
	sub := make([]string, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !frequent[strings.Join(sub, "\x1f")] {
			return false
		}
	}
	return true
}

// normalizeTx deduplicates and sorts one transaction.
func normalizeTx(tx []string) []string {
	seen := make(map[string]bool, len(tx))
	out := make([]string, 0, len(tx))
	for _, it := range tx {
		if it != "" && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	sort.Strings(out)
	return out
}
