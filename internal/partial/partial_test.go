package partial

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adahealth/internal/slots"
	"adahealth/internal/synth"
	"adahealth/internal/vsm"
)

func smallMatrix(t *testing.T) *vsm.Matrix {
	t.Helper()
	log, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := vsm.Build(log, vsm.Options{Weighting: vsm.Count})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	m := smallMatrix(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fraction > 1", Config{Fractions: []float64{0.5, 1.5}}},
		{"fraction <= 0", Config{Fractions: []float64{0, 1}}},
		{"decreasing", Config{Fractions: []float64{0.8, 0.4, 1}}},
		{"missing full reference", Config{Fractions: []float64{0.2, 0.4}}},
		{"bad K", Config{Ks: []int{0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := RunHorizontal(context.Background(), m, c.cfg); err == nil {
				t.Errorf("accepted %s", c.name)
			}
			if err := c.cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config rejected: %v", err)
	}
}

func TestHorizontalDefaultsAndShape(t *testing.T) {
	m := smallMatrix(t)
	res, err := RunHorizontal(context.Background(), m, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "horizontal" {
		t.Errorf("strategy = %q", res.Strategy)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d, want 3 (paper: 20%%/40%%/100%%)", len(res.Steps))
	}
	// Row coverage must grow with the feature fraction and reach 1.
	prev := 0.0
	for i, s := range res.Steps {
		if s.RowCoverage < prev {
			t.Errorf("step %d coverage %v below previous %v", i, s.RowCoverage, prev)
		}
		prev = s.RowCoverage
		if s.NumRows != m.NumRows() {
			t.Errorf("step %d dropped patients: %d vs %d", i, s.NumRows, m.NumRows())
		}
	}
	if last := res.Steps[len(res.Steps)-1]; last.RowCoverage != 1 || last.RelDiff != 0 {
		t.Errorf("reference step = %+v, want full coverage and zero diff", last)
	}
}

func TestHorizontalCoverageMatchesPaperShape(t *testing.T) {
	// With the synthetic Zipf data: 20% of exam types ≈ 70% of rows,
	// 40% ≈ 85% (the fractions reported in §IV-B).
	m := smallMatrix(t)
	res, err := RunHorizontal(context.Background(), m, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c20 := res.Steps[0].RowCoverage
	c40 := res.Steps[1].RowCoverage
	if c20 < 0.55 || c20 > 0.85 {
		t.Errorf("coverage at 20%% features = %.3f, want ≈0.70", c20)
	}
	if c40 < 0.75 || c40 > 0.95 {
		t.Errorf("coverage at 40%% features = %.3f, want ≈0.85", c40)
	}
	if c40 <= c20 {
		t.Errorf("coverage not increasing: %v then %v", c20, c40)
	}
}

func TestHorizontalSelectsSmallestWithinTolerance(t *testing.T) {
	m := smallMatrix(t)
	// Generous tolerance: the smallest step must be selected.
	res, err := RunHorizontal(context.Background(), m, Config{Seed: 1, Tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 0 {
		t.Errorf("selected step %d under infinite tolerance, want 0", res.Selected)
	}
	// Tiny tolerance: only the reference step qualifies.
	res, err = RunHorizontal(context.Background(), m, Config{Seed: 1, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != len(res.Steps)-1 {
		t.Errorf("selected step %d under zero tolerance, want reference %d",
			res.Selected, len(res.Steps)-1)
	}
}

func TestHorizontalSimilarityDecreasesWithFewerExams(t *testing.T) {
	// Paper: "for a fixed number of clusters, the overall similarity
	// decreases as the number of exams is reduced". With count
	// vectors, fewer features → higher relative weight of shared
	// frequent exams... verify the direction the paper reports on its
	// data: the 100% step is the reference; check the 20% step's
	// similarity differs from it.
	m := smallMatrix(t)
	res, err := RunHorizontal(context.Background(), m, Config{Seed: 3, Ks: []int{6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].RelDiff == 0 && res.Steps[1].RelDiff == 0 {
		t.Skip("degenerate: all steps identical similarity")
	}
	if res.Steps[0].RelDiff < res.Steps[1].RelDiff {
		t.Logf("note: 20%% subset closer to full than 40%% (possible on synthetic data): %v vs %v",
			res.Steps[0].RelDiff, res.Steps[1].RelDiff)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	m := smallMatrix(t)
	a, err := RunHorizontal(context.Background(), m, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHorizontal(context.Background(), m, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Steps {
		for k, v := range a.Steps[i].SimilarityByK {
			if b.Steps[i].SimilarityByK[k] != v {
				t.Fatalf("step %d K=%d differs across identical runs", i, k)
			}
		}
	}
	if a.Selected != b.Selected {
		t.Errorf("selection differs: %d vs %d", a.Selected, b.Selected)
	}
}

// TestHorizontalEqualAcrossBudgets: the probes fan out over whatever
// budget the caller lends, and the Result is bit-for-bit the same for
// none (every probe in order on the caller, kernel unpinned) and for 1,
// 2 and 8 slots.
func TestHorizontalEqualAcrossBudgets(t *testing.T) {
	m := smallMatrix(t)
	cfg := Config{Seed: 4, Fractions: []float64{0.2, 0.4, 0.7, 1}, Ks: []int{3, 6, 8}}
	want, err := RunHorizontal(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 8} {
		cfg.Budget = slots.New(n)
		got, err := RunHorizontal(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget of %d slots: result differs from the unbudgeted run", n)
		}
	}
}

// TestHorizontalErrorIsFirstFailingProbe: of several failing probes the
// first in (fraction, K) order is the error, however the probes
// interleave; a cancelled run returns the bare context error.
func TestHorizontalErrorIsFirstFailingProbe(t *testing.T) {
	m := smallMatrix(t)
	tooMany := m.NumRows() + 1
	for _, n := range []int{0, 2, 8} {
		cfg := Config{Seed: 1, Ks: []int{3, tooMany + 1, tooMany}}
		if n > 0 {
			cfg.Budget = slots.New(n)
		}
		_, err := RunHorizontal(context.Background(), m, cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("fraction 0.2 at K=%d:", tooMany+1)) {
			t.Errorf("budget %d: error = %v, want the probe at fraction 0.2, K=%d", n, err, tooMany+1)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := RunHorizontal(ctx, m, Config{Seed: 1, Budget: cfg.Budget}); err != context.Canceled {
			t.Errorf("budget %d: cancelled run returned %v, want the bare context.Canceled", n, err)
		}
	}
}
