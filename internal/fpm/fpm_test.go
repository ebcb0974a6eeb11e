package fpm

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// classic is the textbook transaction set with well-known frequent
// itemsets at minSupport 2.
func classic() [][]string {
	return [][]string{
		{"bread", "milk"},
		{"bread", "diaper", "beer", "eggs"},
		{"milk", "diaper", "beer", "cola"},
		{"bread", "milk", "diaper", "beer"},
		{"bread", "milk", "diaper", "cola"},
	}
}

func supportOf(sets []Itemset, items ...string) (int, bool) {
	sort.Strings(items)
	key := Itemset{Items: items}.Key()
	for _, s := range sets {
		if s.Key() == key {
			return s.Support, true
		}
	}
	return 0, false
}

func TestAprioriClassic(t *testing.T) {
	sets, err := Apriori(classic(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		items []string
		want  int
	}{
		{[]string{"bread"}, 4},
		{[]string{"milk"}, 4},
		{[]string{"diaper"}, 4},
		{[]string{"beer"}, 3},
		{[]string{"bread", "milk"}, 3},
		{[]string{"beer", "diaper"}, 3},
		{[]string{"bread", "diaper", "milk"}, 2},
		{[]string{"beer", "bread", "diaper"}, 2},
	}
	for _, c := range cases {
		got, ok := supportOf(sets, c.items...)
		if !ok {
			t.Errorf("itemset %v missing", c.items)
			continue
		}
		if got != c.want {
			t.Errorf("support(%v) = %d, want %d", c.items, got, c.want)
		}
	}
	// eggs and cola have support 1 and must be absent.
	if _, ok := supportOf(sets, "eggs"); ok {
		t.Error("infrequent item eggs reported")
	}
}

func TestAprioriMinSupportValidation(t *testing.T) {
	if _, err := Apriori(classic(), 0); err == nil {
		t.Error("accepted minSupport 0")
	}
}

func TestAprioriDuplicateItemsInTransaction(t *testing.T) {
	txs := [][]string{{"a", "a", "b"}, {"a", "b", "b"}}
	sets, err := Apriori(txs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := supportOf(sets, "a"); got != 2 {
		t.Errorf("support(a) = %d, want 2 (duplicates collapse)", got)
	}
	if got, _ := supportOf(sets, "a", "b"); got != 2 {
		t.Errorf("support(a,b) = %d, want 2", got)
	}
}

func TestAprioriEmptyTransactions(t *testing.T) {
	sets, err := Apriori(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 0 {
		t.Errorf("mined %d itemsets from nothing", len(sets))
	}
}

func TestFPGrowthClassic(t *testing.T) {
	sets, err := FPGrowth(classic(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := supportOf(sets, "beer", "diaper"); got != 3 {
		t.Errorf("support(beer,diaper) = %d, want 3", got)
	}
	if got, _ := supportOf(sets, "bread", "diaper", "milk"); got != 2 {
		t.Errorf("support(bread,diaper,milk) = %d, want 2", got)
	}
}

// canonical maps itemsets to a comparable form.
func canonical(sets []Itemset) map[string]int {
	out := make(map[string]int, len(sets))
	for _, s := range sets {
		out[s.Key()] = s.Support
	}
	return out
}

// Property: Apriori and FP-Growth are set-equal on random data.
func TestAprioriEqualsFPGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 25; trial++ {
		nTx := 5 + rng.Intn(40)
		txs := make([][]string, nTx)
		for i := range txs {
			size := 1 + rng.Intn(6)
			for j := 0; j < size; j++ {
				txs[i] = append(txs[i], alphabet[rng.Intn(len(alphabet))])
			}
		}
		minSupp := 1 + rng.Intn(4)
		ap, err := Apriori(txs, minSupp)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := FPGrowth(txs, minSupp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonical(ap), canonical(fp)) {
			t.Fatalf("trial %d (minSupp=%d): Apriori %v != FPGrowth %v",
				trial, minSupp, canonical(ap), canonical(fp))
		}
	}
}

// Property: support is anti-monotone — every subset of a frequent
// itemset is frequent with at least the same support.
func TestSupportAntiMonotone(t *testing.T) {
	sets, err := FPGrowth(classic(), 2)
	if err != nil {
		t.Fatal(err)
	}
	bySize := canonical(sets)
	for _, s := range sets {
		if len(s.Items) < 2 {
			continue
		}
		for skip := range s.Items {
			var sub []string
			for i, it := range s.Items {
				if i != skip {
					sub = append(sub, it)
				}
			}
			subSupp, ok := bySize[Itemset{Items: sub}.Key()]
			if !ok {
				t.Fatalf("subset %v of frequent %v not reported", sub, s.Items)
			}
			if subSupp < s.Support {
				t.Fatalf("support(%v)=%d < support(%v)=%d", sub, subSupp, s.Items, s.Support)
			}
		}
	}
}

func TestSortItemsetsDeterministic(t *testing.T) {
	sets := []Itemset{
		{Items: []string{"b"}, Support: 3},
		{Items: []string{"a"}, Support: 3},
		{Items: []string{"a", "b"}, Support: 5},
	}
	SortItemsets(sets)
	if sets[0].Items[0] != "a" || sets[1].Items[0] != "b" || len(sets[2].Items) != 2 {
		t.Errorf("sort order wrong: %v", sets)
	}
}

func TestRulesClassic(t *testing.T) {
	txs := classic()
	sets, err := FPGrowth(txs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Rules(sets, len(txs), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// {beer} => {diaper}: supp 3, conf 3/3 = 1, lift 1/(4/5) = 1.25.
	found := false
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "beer" &&
			len(r.Consequent) == 1 && r.Consequent[0] == "diaper" {
			found = true
			if r.Confidence != 1 {
				t.Errorf("conf(beer=>diaper) = %v, want 1", r.Confidence)
			}
			if r.Lift < 1.249 || r.Lift > 1.251 {
				t.Errorf("lift(beer=>diaper) = %v, want 1.25", r.Lift)
			}
		}
	}
	if !found {
		t.Error("rule beer => diaper not derived")
	}
	// All rules meet the confidence threshold.
	for _, r := range rules {
		if r.Confidence < 0.7 {
			t.Errorf("rule %v below threshold", r)
		}
	}
}

func TestRulesValidation(t *testing.T) {
	if _, err := Rules(nil, 0, 0.5); err == nil {
		t.Error("accepted numTx 0")
	}
	if _, err := Rules(nil, 5, 1.5); err == nil {
		t.Error("accepted confidence > 1")
	}
}

func TestRulesSortedByConfidence(t *testing.T) {
	txs := classic()
	sets, _ := FPGrowth(txs, 2)
	rules, _ := Rules(sets, len(txs), 0.5)
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence+1e-12 {
			t.Fatalf("rules not sorted by confidence at %d: %v then %v",
				i, rules[i-1].Confidence, rules[i].Confidence)
		}
	}
}

// fuzzBaskets decodes fuzz bytes into a support threshold (the first
// byte, 1–5) and baskets over eleven items, one of them the empty name
// both miners drop: each later byte adds an item to the current basket
// or, one value in twelve, closes it. Input is capped at 512 bytes so
// the Apriori reference stays fast.
func fuzzBaskets(data []byte) (txs [][]string, minSupport int) {
	if len(data) == 0 || len(data) > 512 {
		return nil, 0
	}
	alphabet := []string{"", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	minSupport = 1 + int(data[0]%5)
	basket := []string{}
	for _, b := range data[1:] {
		if sym := int(b % 12); sym < len(alphabet) {
			basket = append(basket, alphabet[sym])
		} else {
			txs = append(txs, basket)
			basket = []string{}
		}
	}
	return append(txs, basket), minSupport
}

// warmBaskets is a fixed basket set larger than any fuzz input's: 26
// items, each with a parent, over 150 baskets.
func warmBaskets() (*Transactions, Taxonomy) {
	rng := rand.New(rand.NewSource(1))
	tax := Taxonomy{}
	for c := 'a'; c <= 'z'; c++ {
		tax[string(c)+"0"] = "group" + string('0'+c%4)
	}
	txs := make([][]string, 150)
	for i := range txs {
		for j := rng.Intn(6); j >= 0; j-- {
			txs[i] = append(txs[i], string('a'+rune(rng.Intn(26)))+"0")
		}
	}
	return NewTransactions(txs), tax
}

// FuzzFPGrowthMatchesApriori requires the FP-Growth miner to find
// exactly Apriori's itemsets and supports on any baskets and threshold:
// duplicate and empty items, empty baskets, and thresholds at which
// every subset of a long basket is frequent. It mines each input on a
// fresh Miner (FPGrowth), and twice on a Miner that has just mined a
// larger basket set under a taxonomy, so reuse must not leak a
// dictionary entry, an ancestor, a tree node or a count from one run
// into the next.
func FuzzFPGrowthMatchesApriori(f *testing.F) {
	warm, warmTax := warmBaskets()
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, minSupport := fuzzBaskets(data)
		if minSupport == 0 {
			return
		}
		ap, err := Apriori(txs, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := FPGrowth(txs, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonical(ap), canonical(fp)) {
			t.Fatalf("baskets %q (minSupport=%d): Apriori %v != FPGrowth %v",
				txs, minSupport, canonical(ap), canonical(fp))
		}
		var m Miner
		if _, err := m.Mine(warm.dict, warm.ptr, warm.items, warmTax, 3); err != nil {
			t.Fatal(err)
		}
		tr := NewTransactions(txs)
		for run := 1; run <= 2; run++ {
			sets, err := m.Mine(tr.dict, tr.ptr, tr.items, nil, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonical(ap), canonical(sets)) {
				t.Fatalf("baskets %q (minSupport=%d), reused Miner run %d: Apriori %v != %v",
					txs, minSupport, run, canonical(ap), canonical(sets))
			}
		}
	})
}
