package vec

import (
	"math"
	"math/rand"
	"slices"
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
	if empty := NewCSRFromDense(nil); empty.NumRows() != 0 {
		t.Errorf("empty CSR: rows=%d", empty.NumRows())
	}
}

// requireCSR fails unless m equals NewCSRFromDense(want) bit for bit,
// cached norms included.
func requireCSR(t *testing.T, what string, m *CSRMatrix, want [][]float64) {
	t.Helper()
	ref := NewCSRFromDense(want)
	if m.Cols != ref.Cols || !slices.Equal(m.RowPtr, ref.RowPtr) ||
		!slices.Equal(m.ColIdx, ref.ColIdx) || !slices.Equal(m.Values, ref.Values) ||
		!slices.Equal(m.rowNorm2, ref.rowNorm2) {
		t.Fatalf("%s: %+v, want %+v", what, m, ref)
	}
}

// The in-place edits — a row spliced larger or smaller, rows appended
// and filled, columns remapped and widened, a column prefix cut — each
// leave the matrix NewCSRFromDense builds from the edited dense rows.
func TestCSREditsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randSparseRows(rng, 12, 7, 0.4)
	m := NewCSRFromDense(rows)
	for _, i := range []int{0, 5, 11, 5} {
		rows[i] = randSparseRows(rng, 1, 7, 0.3+0.1*float64(i))[0]
		vals, cols := NewCSRFromDense(rows[i : i+1]).RowView(0)
		m.SetRow(i, vals, cols)
		requireCSR(t, "SetRow", m, rows)
	}
	extra := randSparseRows(rng, 3, 7, 0.5)
	m.AppendEmptyRows(len(extra))
	for i, r := range extra {
		vals, cols := NewCSRFromDense([][]float64{r}).RowView(0)
		m.SetRow(len(rows)+i, vals, cols)
	}
	rows = append(rows, extra...)
	requireCSR(t, "AppendEmptyRows", m, rows)
	for _, n := range []int{0, 1, 4, 7} {
		cut := make([][]float64, len(rows))
		for i, r := range rows {
			cut[i] = r[:n]
		}
		requireCSR(t, "Prefix", m.Prefix(n), cut)
	}
	to := []int32{4, 8, 0, 2, 6, 1, 3} // old column j moves to to[j] of 9
	moved := make([][]float64, len(rows))
	for i, r := range rows {
		moved[i] = make([]float64, 9)
		for j, v := range r {
			moved[i][to[j]] = v
		}
	}
	m.RemapCols(to, 9)
	requireCSR(t, "RemapCols", m, moved)
}

func TestCSRPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCSRFromDense accepted ragged rows")
		}
	}()
	NewCSRFromDense([][]float64{{1, 2}, {3}})
}
