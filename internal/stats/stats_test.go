package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if !almostEqual(s.Std, 2, 1e-12) {
		t.Errorf("Std = %v, want 2 (population)", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSkewness(t *testing.T) {
	rightSkewed := []float64{1, 1, 1, 1, 2, 2, 3, 10}
	if s := Summarize(rightSkewed); s.Skewness <= 0 {
		t.Errorf("right-skewed sample has skewness %v, want > 0", s.Skewness)
	}
	symmetric := []float64{-2, -1, 0, 1, 2}
	if s := Summarize(symmetric); !almostEqual(s.Skewness, 0, 1e-9) {
		t.Errorf("symmetric sample skewness = %v, want 0", s.Skewness)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v", got)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("uniform 2-way entropy = %v, want 1 bit", got)
	}
	if got := Entropy([]int{10, 0, 0}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("concentrated entropy = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("empty entropy = %v", got)
	}
}

func TestNormalizedEntropy(t *testing.T) {
	if got := NormalizedEntropy([]int{3, 3, 3, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("uniform normalized entropy = %v, want 1", got)
	}
	if got := NormalizedEntropy([]int{7}); got != 0 {
		t.Errorf("single-category normalized entropy = %v, want 0", got)
	}
}

func TestGini(t *testing.T) {
	if got := Gini([]int{5, 5, 5, 5}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("uniform Gini = %v, want 0", got)
	}
	concentrated := Gini([]int{0, 0, 0, 100})
	if concentrated < 0.7 {
		t.Errorf("concentrated Gini = %v, want high", concentrated)
	}
	if got := Gini(nil); got != 0 {
		t.Errorf("empty Gini = %v", got)
	}
	if got := Gini([]int{0, 0}); got != 0 {
		t.Errorf("all-zero Gini = %v", got)
	}
}

func TestTopShareByCount(t *testing.T) {
	counts := []int{50, 30, 15, 5}
	if got := TopShareByCount(counts, 1); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("top-1 share = %v, want 0.5", got)
	}
	if got := TopShareByCount(counts, 2); !almostEqual(got, 0.8, 1e-12) {
		t.Errorf("top-2 share = %v, want 0.8", got)
	}
	if got := TopShareByCount(counts, 10); !almostEqual(got, 1, 1e-12) {
		t.Errorf("top-all share = %v, want 1", got)
	}
	if got := TopShareByCount(counts, 0); got != 0 {
		t.Errorf("top-0 share = %v, want 0", got)
	}
}

// Property: entropy is maximal for uniform distributions.
func TestEntropyUniformIsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(10)
		uniform := make([]int, k)
		skewed := make([]int, k)
		total := k * 10
		for i := range uniform {
			uniform[i] = 10
		}
		remaining := total
		for i := 0; i < k-1; i++ {
			take := rng.Intn(remaining + 1)
			skewed[i] = take
			remaining -= take
		}
		skewed[k-1] = remaining
		if Entropy(skewed) > Entropy(uniform)+1e-9 {
			t.Fatalf("skewed entropy %v exceeds uniform %v (k=%d, %v)",
				Entropy(skewed), Entropy(uniform), k, skewed)
		}
	}
}

// Property: Gini is in [0, 1) and scale-invariant.
func TestGiniProperties(t *testing.T) {
	f := func(raw [6]uint8) bool {
		counts := make([]int, len(raw))
		scaled := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
			scaled[i] = int(v) * 3
		}
		g := Gini(counts)
		gs := Gini(scaled)
		return g >= 0 && g < 1 && almostEqual(g, gs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s := Summarize(xs)
		if !(s.Q1 <= s.Median && s.Median <= s.Q3) {
			t.Fatalf("quantiles not monotone: q1=%v med=%v q3=%v", s.Q1, s.Median, s.Q3)
		}
		if s.Min > s.Q1 || s.Q3 > s.Max {
			t.Fatalf("quantiles outside range: %+v", s)
		}
	}
}
