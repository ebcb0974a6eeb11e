package fpm

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"adahealth/internal/synth"
)

// goldenLog is one cohort of TestMineGeneralizedGolden: its exam names,
// coded visits and taxonomy, built as the pipeline's patterns stage
// builds them (the log's encoded visits, exam → "category:"+Category).
type goldenLog struct {
	seed        int64
	patients    int
	names       []string
	ptr, items  []int32
	tax         Taxonomy
	visits      int
	minSupports [3]int // at 2 %, 1 % and 0.5 % of visits, floor 2
}

var goldenFracs = [3]float64{0.02, 0.01, 0.005}

// goldenLogs generates the six cohorts: synth seeds 1–3, 300 and 1,000
// patients.
func goldenLogs(t *testing.T) []goldenLog {
	t.Helper()
	var out []goldenLog
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
			g := goldenLog{seed: seed, patients: patients, names: enc.ExamCodes, ptr: enc.VisitPtr,
				items: enc.VisitExams, tax: tax, visits: enc.NumVisits()}
			for i, frac := range goldenFracs {
				g.minSupports[i] = max(int(frac*float64(g.visits)), 2)
			}
			out = append(out, g)
		}
	}
	return out
}

// section prints one case: a header line, then one
// "support<TAB>items" line per itemset in the order mined.
func (g goldenLog) section(frac int, sets []Itemset) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# seed=%d patients=%d frac=%g visits=%d minSupport=%d itemsets=%d\n",
		g.seed, g.patients, goldenFracs[frac], g.visits, g.minSupports[frac], len(sets))
	for _, s := range sets {
		fmt.Fprintf(&buf, "%d\t%s\n", s.Support, strings.Join(s.Items, " "))
	}
	return buf.Bytes()
}

// minedGolden mines every case of TestMineGeneralizedGolden through the
// one-shot entry points, extending each cohort's baskets once and
// mining them at each floor.
func minedGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, g := range goldenLogs(t) {
		ext := g.tax.ExtendEncoded(EncodeTransactions(g.names, g.ptr, g.items))
		for i, minSupport := range g.minSupports {
			gsets, err := MineGeneralizedEncoded(ext, g.tax, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			sets := make([]Itemset, len(gsets))
			for j, s := range gsets {
				sets[j] = s.Itemset
			}
			buf.Write(g.section(i, sets))
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

// TestMinerReuseMatchesGolden mines the 18 golden cases on one shared
// Miner, forward and then in reverse, so its dictionary and trees grow
// from case to case and then shrink: both passes must print
// testdata/generalized.golden byte for byte.
func TestMinerReuseMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/generalized.golden")
	if err != nil {
		t.Fatal(err)
	}
	logs := goldenLogs(t)
	n := len(logs) * len(goldenFracs)
	var m Miner
	for _, reverse := range []bool{false, true} {
		sections := make([][]byte, n)
		for k := range n {
			if reverse {
				k = n - 1 - k
			}
			g, frac := logs[k/len(goldenFracs)], k%len(goldenFracs)
			sets, err := m.Mine(g.names, g.ptr, g.items, g.tax, g.minSupports[frac])
			if err != nil {
				t.Fatal(err)
			}
			sections[k] = g.section(frac, sets)
		}
		if got := bytes.Join(sections, nil); !bytes.Equal(got, want) {
			t.Fatalf("reverse=%v: one shared Miner's itemsets differ from testdata/generalized.golden", reverse)
		}
	}
}
