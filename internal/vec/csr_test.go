package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randSparseRows(rng *rand.Rand, n, d int, density float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if rng.Float64() < density {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	return rows
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		rows := randSparseRows(rng, 17, 9, density)
		m := NewCSRFromDense(rows)
		if m.NumRows() != 17 || m.NumCols() != 9 {
			t.Fatalf("shape = %dx%d", m.NumRows(), m.NumCols())
		}
		back := m.Dense()
		for i := range rows {
			for j := range rows[i] {
				if back[i][j] != rows[i][j] {
					t.Fatalf("density %g: cell (%d,%d) = %v, want %v",
						density, i, j, back[i][j], rows[i][j])
				}
			}
		}
	}
}

func TestCSRNormsAndDots(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randSparseRows(rng, 25, 12, 0.3)
	m := NewCSRFromDense(rows)
	dense := make([]float64, 12)
	for j := range dense {
		dense[j] = rng.NormFloat64()
	}
	for i := range rows {
		wantN2 := Dot(rows[i], rows[i])
		if got := m.RowNorm2(i); math.Abs(got-wantN2) > 1e-12 {
			t.Errorf("RowNorm2(%d) = %v, want %v", i, got, wantN2)
		}
		vals, cols := m.RowView(i)
		if got, want := SparseDot(vals, cols, dense), Dot(rows[i], dense); math.Abs(got-want) > 1e-12 {
			t.Errorf("row %d sparse dot = %v, want %v", i, got, want)
		}
	}
}

func TestCSRDensityAndNNZ(t *testing.T) {
	rows := [][]float64{{1, 0, 0, 2}, {0, 0, 0, 0}, {3, 4, 5, 6}}
	m := NewCSRFromDense(rows)
	if len(m.Values) != 6 || len(m.ColIdx) != 6 {
		t.Errorf("stored %d values / %d columns, want 6", len(m.Values), len(m.ColIdx))
	}
	if got, want := Density(rows), 6.0/12.0; got != want {
		t.Errorf("Density(rows) = %v, want %v", got, want)
	}
	if empty := NewCSRFromDense(nil); empty.NumRows() != 0 {
		t.Errorf("empty CSR: rows=%d", empty.NumRows())
	}
	if Density(nil) != 0 {
		t.Errorf("Density(nil) = %v, want 0", Density(nil))
	}
}

func TestCSRPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCSRFromDense accepted ragged rows")
		}
	}()
	NewCSRFromDense([][]float64{{1, 2}, {3}})
}
