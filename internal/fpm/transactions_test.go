package fpm

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomBaskets generates unnormalized baskets (duplicates, empties)
// over a small alphabet.
func randomBaskets(rng *rand.Rand, n int) [][]string {
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	out := make([][]string, n)
	for i := range out {
		size := 1 + rng.Intn(5)
		tx := make([]string, 0, size+1)
		for j := 0; j < size; j++ {
			tx = append(tx, alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(4) == 0 {
			tx = append(tx, "") // empty items must be dropped
		}
		out[i] = tx
	}
	return out
}

// TestTransactionsMinersMatchOneShot is the shared-encoding
// equivalence property: for random baskets and several thresholds,
// Transactions.FPGrowth must emit exactly the itemsets of the one-shot
// entry point (which normalizes per call) and of the Apriori reference.
func TestTransactionsMinersMatchOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		txs := randomBaskets(rng, 60)
		shared := NewTransactions(txs)
		for _, minSupport := range []int{2, 4, 8} {
			wantFP, err := FPGrowth(txs, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			gotFP, err := shared.FPGrowth(minSupport)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFP, wantFP) {
				t.Fatalf("trial %d supp %d: shared FPGrowth differs:\n%v\nvs\n%v",
					trial, minSupport, gotFP, wantFP)
			}
			wantAp, err := Apriori(txs, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFP, wantAp) {
				t.Fatalf("trial %d supp %d: FPGrowth and Apriori disagree", trial, minSupport)
			}
		}
	}
}

func TestTransactionsEncoding(t *testing.T) {
	tr := NewTransactions([][]string{
		{"x", "c", "x", "", "a"},
		{},
		{"c"},
	})
	if tr.NumTx() != 3 {
		t.Errorf("NumTx = %d", tr.NumTx())
	}
	if tr.NumItems() != 3 {
		t.Errorf("NumItems = %d", tr.NumItems())
	}
	// Dictionary is lexicographic: a < c < x.
	for id, want := range []string{"a", "c", "x"} {
		if got := tr.Item(int32(id)); got != want {
			t.Errorf("Item(%d) = %q, want %q", id, got, want)
		}
	}
	if got := tr.tx(0); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("tx(0) = %v, want [0 1 2]", got)
	}
	if got := tr.tx(1); len(got) != 0 {
		t.Errorf("tx(1) = %v, want empty", got)
	}
	if tr.freq[1] != 2 { // "c" appears in two baskets
		t.Errorf("freq[c] = %d, want 2", tr.freq[1])
	}
}

func TestTransactionsMinSupportValidation(t *testing.T) {
	tr := NewTransactions([][]string{{"a"}})
	if _, err := tr.FPGrowth(0); err == nil {
		t.Error("FPGrowth accepted minSupport 0")
	}
}
