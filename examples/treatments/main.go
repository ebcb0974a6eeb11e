// Treatment characterization (MeTA-style, the paper's reference [2]):
// mine the examination log for exams commonly prescribed together,
// across abstraction levels — specific exam codes at the bottom,
// clinical categories (cardiovascular, renal, ...) above them — then
// derive association rules usable for compliance and adverse-event
// style analyses.
package main

import (
	"fmt"
	"log"
	"sort"

	"adahealth/internal/fpm"
	"adahealth/internal/synth"
)

func main() {
	data, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Transactions are per-patient per-day visits.
	visits := data.Visits()
	txs := make([][]string, len(visits))
	for i, v := range visits {
		txs[i] = v.ExamCodes
	}
	fmt.Printf("%d visits from %d patients\n\n", len(txs), data.NumPatients())

	// The abstraction hierarchy comes from the exam catalog's clinical
	// categories.
	tax := fpm.Taxonomy{}
	names := map[string]string{}
	for _, e := range data.Exams {
		tax[e.Code] = "cat:" + e.Category
		names[e.Code] = e.Name
	}

	minSupport := len(txs) / 200 // 0.5% of visits
	generalized, err := fpm.MineGeneralized(txs, tax, minSupport)
	if err != nil {
		log.Fatal(err)
	}

	// Level 0: concrete co-prescribed exams. No category enters their
	// supports, so plain FP-Growth over the visits finds exactly the
	// generalized miner's level-0 itemsets, in the same order.
	leaves, err := fpm.FPGrowth(txs, minSupport)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("co-prescribed exams (leaf level):")
	shown := 0
	for _, g := range leaves {
		if len(g.Items) < 2 {
			continue
		}
		fmt.Printf("  %v  support %d (%.1f%% of visits)\n",
			withNames(g.Items, names), g.Support, 100*float64(g.Support)/float64(len(txs)))
		if shown++; shown >= 8 {
			break
		}
	}

	// One level up: category-level patterns that are invisible at leaf
	// level because individual exams are too rare.
	fmt.Println("\ncategory-level patterns (generalized):")
	shown = 0
	for _, g := range fpm.FilterByLevel(generalized, tax.Level("cat:"+data.Exams[0].Category)) {
		if len(g.Items) < 2 {
			continue
		}
		fmt.Printf("  %v  support %d\n", g.Items, g.Support)
		if shown++; shown >= 8 {
			break
		}
	}

	// Association rules with confidence >= 0.3, surfaced by lift so
	// surprising co-prescriptions outrank ubiquitous routine pairs.
	flat := make([]fpm.Itemset, len(generalized))
	for i, g := range generalized {
		flat[i] = g.Itemset
	}
	rules, err := fpm.Rules(flat, len(txs), 0.3)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Lift > rules[j].Lift })
	fmt.Println("\nmost surprising prescription rules (by lift):")
	shown = 0
	for _, r := range rules {
		fmt.Printf("  %v => %v  (conf %.2f, lift %.1f)\n",
			withNames(r.Antecedent, names), withNames(r.Consequent, names),
			r.Confidence, r.Lift)
		if shown++; shown >= 8 {
			break
		}
	}
}

// withNames maps exam codes to readable names, leaving category items
// as they are.
func withNames(items []string, names map[string]string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		if n, ok := names[it]; ok {
			out[i] = n
		} else {
			out[i] = it
		}
	}
	return out
}
