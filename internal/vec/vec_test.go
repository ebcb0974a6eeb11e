package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, 4}
	if got := Norm(v); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestClone(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Clone = %v", c)
	}
	c[0] = 9
	if a[0] != 1 {
		t.Error("Clone did not copy")
	}
}

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if got := SquaredEuclidean(a, b); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
	if got := Euclidean(a, b); got != 5 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
}

func TestArgMinDistance(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 0}, {5, 5}}
	i, d := ArgMinDistance([]float64{9, 1}, cents)
	if i != 1 {
		t.Errorf("ArgMin = %d, want 1", i)
	}
	if !almostEqual(d, 2) {
		t.Errorf("dist = %v, want 2", d)
	}
}

// Property: triangle inequality for the Euclidean distance.
func TestEuclideanTriangleInequality(t *testing.T) {
	f := func(a, b, c [6]float64) bool {
		ab := Euclidean(a[:], b[:])
		bc := Euclidean(b[:], c[:])
		ac := Euclidean(a[:], c[:])
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ||a|| = 0 iff a = 0 (up to sign of entries drawn).
func TestNormZeroIffZero(t *testing.T) {
	f := func(a [5]float64) bool {
		n := Norm(a[:])
		allZero := true
		for _, v := range a {
			if v != 0 {
				allZero = false
			}
		}
		return (n == 0) == allZero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
