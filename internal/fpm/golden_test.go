package fpm

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"adahealth/internal/synth"
)

// minedGolden mines every case of TestMineGeneralizedGolden and prints
// the itemsets in the order MineGeneralizedEncoded returns them: one
// header line per case, then one "support<TAB>items" line per itemset.
// The baskets, taxonomy and support floor are built as the pipeline's
// patterns stage builds them: the log's encoded visits, exam →
// "category:"+Category, and int(frac × visits) with a floor of 2.
func minedGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, seed := range []int64{1, 2, 3} {
		for _, patients := range []int{300, 1000} {
			cfg := synth.DefaultConfig()
			cfg.Seed = seed
			cfg.NumPatients = patients
			cfg.TargetRecords = 15 * patients
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
			ext := tax.ExtendEncoded(EncodeTransactions(enc.ExamCodes, enc.VisitPtr, enc.VisitExams))
			for _, frac := range []float64{0.02, 0.01, 0.005} {
				minSupport := max(int(frac*float64(enc.NumVisits())), 2)
				sets, err := MineGeneralizedEncoded(ext, tax, minSupport)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "# seed=%d patients=%d frac=%g visits=%d minSupport=%d itemsets=%d\n",
					seed, patients, frac, enc.NumVisits(), minSupport, len(sets))
				for _, s := range sets {
					fmt.Fprintf(&buf, "%d\t%s\n", s.Support, strings.Join(s.Items, " "))
				}
			}
		}
	}
	return buf.Bytes()
}

// TestMineGeneralizedGolden pins the generalized miner's output, items,
// supports and order, on paper-shaped cohorts (synth seeds 1–3, 300 and
// 1,000 patients, support floors 2 %, 1 % and 0.5 % of visits), so a
// change to the miner's internals must reproduce it exactly.
func TestMineGeneralizedGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/generalized.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := minedGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("mined itemsets drifted from testdata/generalized.golden at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("mined itemsets drifted from testdata/generalized.golden: %d lines, want %d", len(gl), len(wl))
}
