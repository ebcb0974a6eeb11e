package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestPurity(t *testing.T) {
	pred := []int{0, 0, 0, 1, 1, 1}
	truth := []int{5, 5, 5, 9, 9, 9}
	got, err := Purity(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("purity of perfect partition = %v", got)
	}
	mixed := []int{0, 0, 1, 1, 0, 1}
	got, err = Purity(mixed, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 1 || got <= 0.5 {
		t.Errorf("mixed purity = %v, want in (0.5, 1)", got)
	}
	if _, err := Purity([]int{1}, []int{1, 2}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := Purity(nil, nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestARIIdenticalAndPermuted(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	got, err := AdjustedRandIndex(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("ARI(self) = %v", got)
	}
	// Same partition under a label permutation still scores 1.
	b := []int{5, 5, 3, 3, 0, 0}
	got, err = AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("ARI(permuted) = %v, want 1", got)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 2000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	got, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.05 {
		t.Errorf("ARI of independent labelings = %v, want ≈0", got)
	}
}

func TestARISymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]int, 100)
	b := make([]int, 100)
	for i := range a {
		a[i] = rng.Intn(3)
		b[i] = rng.Intn(5)
	}
	x, _ := AdjustedRandIndex(a, b)
	y, _ := AdjustedRandIndex(b, a)
	if math.Abs(x-y) > 1e-12 {
		t.Errorf("ARI not symmetric: %v vs %v", x, y)
	}
}

func TestNMIIdenticalAndRandom(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	got, err := NormalizedMutualInfo(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("NMI(self) = %v", got)
	}
	rng := rand.New(rand.NewSource(9))
	n := 3000
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	got, err = NormalizedMutualInfo(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.05 {
		t.Errorf("NMI of independent labelings = %v, want ≈0", got)
	}
}

func TestNMIBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(200)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1 + rng.Intn(6))
			b[i] = rng.Intn(1 + rng.Intn(6))
		}
		got, err := NormalizedMutualInfo(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got < 0 || got > 1 {
			t.Fatalf("NMI = %v outside [0,1]", got)
		}
	}
}
