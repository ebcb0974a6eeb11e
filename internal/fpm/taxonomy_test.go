package fpm

import (
	"reflect"
	"testing"
)

func examTaxonomy() Taxonomy {
	return Taxonomy{
		"ecg":        "cardio",
		"echo":       "cardio",
		"fundus":     "eye",
		"oct":        "eye",
		"cardio":     "specialist",
		"eye":        "specialist",
		"hba1c":      "routine",
		"glucose":    "routine",
		"creatinine": "renal",
	}
}

func TestAncestors(t *testing.T) {
	tax := examTaxonomy()
	got := tax.Ancestors("ecg")
	if len(got) != 2 || got[0] != "cardio" || got[1] != "specialist" {
		t.Errorf("Ancestors(ecg) = %v", got)
	}
	if got := tax.Ancestors("unknown"); len(got) != 0 {
		t.Errorf("Ancestors(unknown) = %v", got)
	}
}

func TestAncestorsCycleSafe(t *testing.T) {
	tax := Taxonomy{"a": "b", "b": "a"}
	got := tax.Ancestors("a")
	if len(got) != 1 || got[0] != "b" {
		t.Errorf("cycle ancestors = %v", got)
	}
}

func TestLevel(t *testing.T) {
	tax := examTaxonomy()
	if l := tax.Level("ecg"); l != 0 {
		t.Errorf("Level(ecg) = %d, want 0", l)
	}
	if l := tax.Level("cardio"); l != 1 {
		t.Errorf("Level(cardio) = %d, want 1", l)
	}
	if l := tax.Level("specialist"); l != 2 {
		t.Errorf("Level(specialist) = %d, want 2", l)
	}
}

func TestExtendTransactions(t *testing.T) {
	tax := examTaxonomy()
	ext := tax.ExtendTransactions([][]string{{"ecg", "hba1c"}})
	if len(ext) != 1 {
		t.Fatalf("ext = %v", ext)
	}
	want := map[string]bool{"ecg": true, "cardio": true, "specialist": true,
		"hba1c": true, "routine": true}
	if len(ext[0]) != len(want) {
		t.Fatalf("extended tx = %v, want keys %v", ext[0], want)
	}
	for _, it := range ext[0] {
		if !want[it] {
			t.Errorf("unexpected item %q", it)
		}
	}
}

func TestMineGeneralizedSurfacesCoarsePatterns(t *testing.T) {
	// ecg and echo each appear twice — but "cardio" appears in all 4
	// transactions with glucose: the generalized pattern is stronger.
	txs := [][]string{
		{"ecg", "glucose"},
		{"echo", "glucose"},
		{"ecg", "glucose"},
		{"echo", "glucose"},
	}
	tax := examTaxonomy()
	sets, err := MineGeneralized(txs, tax, 3)
	if err != nil {
		t.Fatal(err)
	}
	var foundCardioGlucose bool
	for _, s := range sets {
		if s.Key() == (Itemset{Items: []string{"cardio", "glucose"}}).Key() {
			foundCardioGlucose = true
			if s.Support != 4 {
				t.Errorf("support(cardio,glucose) = %d, want 4", s.Support)
			}
			if s.MaxLevel != 1 {
				t.Errorf("level = %d, want 1", s.MaxLevel)
			}
		}
		// Leaf-level pairs are below support 3 and must not appear.
		if s.Key() == (Itemset{Items: []string{"ecg", "glucose"}}).Key() {
			t.Errorf("infrequent leaf pattern surfaced: %v", s)
		}
	}
	if !foundCardioGlucose {
		t.Errorf("generalized pattern {cardio, glucose} missing from %v", sets)
	}
}

func TestMineGeneralizedFiltersAncestorPairs(t *testing.T) {
	txs := [][]string{{"ecg"}, {"ecg"}, {"ecg"}}
	sets, err := MineGeneralized(txs, examTaxonomy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		if containsAncestorPair(s.Items, examTaxonomy()) {
			t.Errorf("redundant ancestor pair itemset: %v", s)
		}
	}
}

func TestFilterByLevel(t *testing.T) {
	sets := []GeneralizedItemset{
		{Itemset: Itemset{Items: []string{"ecg"}, Support: 3}, MaxLevel: 0},
		{Itemset: Itemset{Items: []string{"cardio"}, Support: 5}, MaxLevel: 1},
	}
	l1 := FilterByLevel(sets, 1)
	if len(l1) != 1 || l1[0].Items[0] != "cardio" {
		t.Errorf("FilterByLevel = %v", l1)
	}
}

func TestMineGeneralizedValidation(t *testing.T) {
	if _, err := MineGeneralized(nil, examTaxonomy(), 0); err == nil {
		t.Error("accepted minSupport 0")
	}
}

// TestMineGeneralizedEncodedMatchesStrings is the equivalence property
// behind the per-log transaction cache: mining a pre-extended encoded
// database must reproduce the string-basket path exactly — same
// itemsets, same supports, same levels, same order — across support
// thresholds.
func TestMineGeneralizedEncodedMatchesStrings(t *testing.T) {
	tax := examTaxonomy()
	txs := [][]string{
		{"ecg", "glucose", "hba1c"},
		{"echo", "glucose"},
		{"fundus", "hba1c", ""},
		{"oct", "creatinine", "glucose"},
		{"ecg", "echo", "hba1c"},
		{"glucose", "hba1c", "glucose"}, // duplicate inside a basket
		{"fundus", "ecg"},
		{"creatinine"},
	}
	ext := tax.ExtendEncoded(NewTransactions(txs))
	for _, minSupport := range []int{2, 3, 4} {
		want, err := MineGeneralized(txs, tax, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MineGeneralizedEncoded(ext, tax, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("minSupport %d: encoded path diverges\nstring: %v\nencoded: %v",
				minSupport, want, got)
		}
	}
}

// TestExtendEncodedEmptyTaxonomy: with no taxonomy the extension is
// the identity, not a copy.
func TestExtendEncodedEmptyTaxonomy(t *testing.T) {
	base := NewTransactions([][]string{{"a", "b"}})
	if got := (Taxonomy{}).ExtendEncoded(base); got != base {
		t.Error("empty taxonomy should return the base encoding unchanged")
	}
}

// containsAncestorPair reports whether any item in the set is an
// ancestor of another item in the set: the string-keyed check the
// miner's filter must agree with.
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
