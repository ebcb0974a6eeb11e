package fpm

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"adahealth/internal/synth"
)

// TestMineTaxonomyCycles: a log can make the exam → category taxonomy
// cyclic (an exam coded "category:x" in category x is a self-loop, and
// two exams can name each other's category). Levels then stop where
// Ancestors stops, and the coded and string paths mine the same
// itemsets; before, Level recursed until the stack overflowed.
func TestMineTaxonomyCycles(t *testing.T) {
	gi := func(level, support int, items ...string) GeneralizedItemset {
		return GeneralizedItemset{Itemset: Itemset{Items: items, Support: support}, MaxLevel: level}
	}
	for _, tc := range []struct {
		name   string
		tax    Taxonomy
		txs    [][]string
		levels map[string]int
		want   []GeneralizedItemset
	}{{
		name:   "self-loop",
		tax:    Taxonomy{"category:x": "category:x", "e1": "category:x"},
		txs:    [][]string{{"e1", "a"}, {"e1", "a"}, {"category:x"}},
		levels: map[string]int{"category:x": 1, "e1": 0, "a": 0},
		want: []GeneralizedItemset{
			gi(1, 3, "category:x"), gi(0, 2, "a"), gi(0, 2, "e1"),
			gi(1, 2, "a", "category:x"), gi(0, 2, "a", "e1"),
		},
	}, {
		name:   "2-cycle",
		tax:    Taxonomy{"a": "b", "b": "a"},
		txs:    [][]string{{"a", "c"}, {"a", "c"}, {"b"}},
		levels: map[string]int{"a": 1, "b": 1, "c": 0},
		want: []GeneralizedItemset{
			gi(1, 3, "a"), gi(1, 3, "b"), gi(0, 2, "c"),
			gi(1, 2, "a", "c"), gi(1, 2, "b", "c"),
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			for item, want := range tc.levels {
				if got := tc.tax.Level(item); got != want {
					t.Errorf("Level(%q) = %d, want %d", item, got, want)
				}
			}
			str, err := MineGeneralized(tc.txs, tc.tax, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(str, tc.want) {
				t.Errorf("MineGeneralized = %v\nwant %v", str, tc.want)
			}
			tr := NewTransactions(tc.txs)
			var m Miner
			coded, err := m.Mine(tr.dict, tr.ptr, tr.items, tc.tax, 2)
			if err != nil {
				t.Fatal(err)
			}
			var want []Itemset
			for _, g := range tc.want {
				want = append(want, g.Itemset)
			}
			if !reflect.DeepEqual(coded, want) {
				t.Errorf("Miner.Mine = %v\nwant %v", coded, want)
			}
		})
	}
}

// TestMinerMatchesReferenceOnRandomTaxonomies: under random taxonomies,
// self-loops, cycles and chains included, one reused Miner finds
// exactly Apriori's itemsets over the string-extended baskets less
// those pairing an item with an ancestor, in SortItemsets order, and
// MineGeneralizedEncoded's levels are the longest Ancestors chain that
// reaches an item.
func TestMinerMatchesReferenceOnRandomTaxonomies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parents := []string{"a", "b", "c", "d", "e", "f", "g", "h", "p", "q"}
	refLevel := func(tax Taxonomy, item string) (level int) {
		for key := range tax {
			for i, a := range tax.Ancestors(key) {
				if a == item {
					level = max(level, i+1)
				}
			}
		}
		return level
	}
	var m Miner
	for trial := range 300 {
		tax := Taxonomy{}
		for _, child := range parents {
			if rng.Intn(2) == 0 {
				tax[child] = parents[rng.Intn(len(parents))]
			}
		}
		txs := randomBaskets(rng, 25)
		minSupport := 1 + rng.Intn(4)

		ref, err := Apriori(tax.ExtendTransactions(txs), minSupport)
		if err != nil {
			t.Fatal(err)
		}
		var want []Itemset
		for _, s := range ref {
			if !containsAncestorPair(s.Items, tax) {
				want = append(want, s)
			}
		}
		SortItemsets(want)
		tr := NewTransactions(txs)
		got, err := m.Mine(tr.dict, tr.ptr, tr.items, tax, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, taxonomy %v, minSupport %d:\n got %v\nwant %v", trial, tax, minSupport, got, want)
		}

		gen, err := MineGeneralizedEncoded(tax.ExtendEncoded(tr), tax, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gen {
			level := 0
			for _, it := range g.Items {
				level = max(level, refLevel(tax, it))
			}
			if g.MaxLevel != level {
				t.Fatalf("trial %d, taxonomy %v: %v has level %d, want %d", trial, tax, g.Items, g.MaxLevel, level)
			}
		}
	}
}

// TestMinerReuseAllocatesOnlyOutput pins what a pooled Miner saves: on
// a 1,000-patient cohort at the engine's 2 % support floor, a second
// run of the same shape allocates the itemsets it returns (their item
// slices, and the result slice grown by append, at most twice its
// final size) and at most 8 KB more. A fresh Miner allocates its
// trees and databases again, about 1 MB.
func TestMinerReuseAllocatesOnlyOutput(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 7
	cfg.NumPatients = 1000
	cfg.TargetRecords = 15000
	log, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tax := Taxonomy{}
	for _, e := range log.Exams {
		if e.Category != "" {
			tax[e.Code] = "category:" + e.Category
		}
	}
	enc := log.Encoded()
	minSupport := max(int(0.02*float64(enc.NumVisits())), 2)

	var m Miner
	if _, err := m.Mine(enc.ExamCodes, enc.VisitPtr, enc.VisitExams, tax, minSupport); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sets, err := m.Mine(enc.ExamCodes, enc.VisitPtr, enc.VisitExams, tax, minSupport)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	output := 2 * uint64(cap(sets)) * uint64(unsafe.Sizeof(Itemset{}))
	for _, s := range sets {
		output += uint64(cap(s.Items)) * uint64(unsafe.Sizeof(""))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > output+8<<10 {
		t.Errorf("second run allocated %d bytes for %d itemsets (%d bytes of output): the Miner's storage was not reused",
			got, len(sets), output)
	}
}
