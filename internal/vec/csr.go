package vec

import (
	"fmt"
	"slices"
)

// CSRMatrix is a compressed-sparse-row matrix: the nonzeros of row i
// are Values[RowPtr[i]:RowPtr[i+1]], with their column indices, in
// ascending order, in the parallel ColIdx range. All three arrays are
// flat and contiguous, so a row scan is a pure linear walk. The
// squared Euclidean norm of each row is cached (Renorm); the
// clustering kernel combines it with per-iteration centroid norms
// through the identity
//
//	‖x−c‖² = ‖x‖² + ‖c‖² − 2⟨x,c⟩
//
// so an assignment step costs O(nnz(x)) per centroid instead of O(d).
// A matrix assembled from its exported arrays holds no explicit zeros
// and calls Renorm before use.
type CSRMatrix struct {
	Cols   int
	RowPtr []int // len NumRows()+1
	ColIdx []int32
	Values []float64

	rowNorm2 []float64 // cached ‖row‖² per row
}

// NewCSRFromDense compresses dense rows (all of equal length) into CSR
// form. It panics on ragged input, mirroring the dense helpers.
func NewCSRFromDense(rows [][]float64) *CSRMatrix {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	m := &CSRMatrix{Cols: cols, RowPtr: make([]int, len(rows)+1)}
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("vec: NewCSRFromDense row %d has %d cols, want %d", i, len(r), cols))
		}
		for _, v := range r {
			if v != 0 {
				m.RowPtr[i+1]++
			}
		}
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.ColIdx = make([]int32, 0, m.RowPtr[len(rows)])
	m.Values = make([]float64, 0, m.RowPtr[len(rows)])
	for _, r := range rows {
		for j, v := range r {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Values = append(m.Values, v)
			}
		}
	}
	m.Renorm()
	return m
}

// norm2 is Σ v², summed in order and never fused into a multiply-add,
// so a sparse row's squared norm equals Dot over its dense form.
func norm2(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += float64(v * v)
	}
	return s
}

// Renorm re-caches every row's squared norm, for a matrix assembled
// from its arrays or whose Values were rewritten in place.
func (m *CSRMatrix) Renorm() {
	m.rowNorm2 = slices.Grow(m.rowNorm2[:0], m.NumRows())[:m.NumRows()]
	for i := range m.rowNorm2 {
		vals, _ := m.RowView(i)
		m.rowNorm2[i] = norm2(vals)
	}
}

// SetRow replaces row i by the nonzeros vals at the ascending columns
// cols (both copied), moving the rows after it, and re-caches its norm.
func (m *CSRMatrix) SetRow(i int, vals []float64, cols []int32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	m.Values = slices.Replace(m.Values, lo, hi, vals...)
	m.ColIdx = slices.Replace(m.ColIdx, lo, hi, cols...)
	for r := i + 1; r < len(m.RowPtr); r++ {
		m.RowPtr[r] += len(vals) - (hi - lo)
	}
	m.rowNorm2[i] = norm2(vals)
}

// AppendEmptyRows appends n rows of zeros, to be filled by SetRow.
func (m *CSRMatrix) AppendEmptyRows(n int) {
	for range n {
		m.RowPtr = append(m.RowPtr, len(m.Values))
		m.rowNorm2 = append(m.rowNorm2, 0)
	}
}

// Prefix returns a new matrix of the first n columns of every row.
func (m *CSRMatrix) Prefix(n int) *CSRMatrix {
	out := &CSRMatrix{Cols: n, RowPtr: make([]int, m.NumRows()+1)}
	for i := range m.NumRows() {
		_, cols := m.RowView(i)
		cut, _ := slices.BinarySearch(cols, int32(n))
		out.RowPtr[i+1] = out.RowPtr[i] + cut
	}
	out.ColIdx = make([]int32, 0, out.RowPtr[m.NumRows()])
	out.Values = make([]float64, 0, out.RowPtr[m.NumRows()])
	for i := range m.NumRows() {
		vals, cols := m.RowView(i)
		cut := out.RowPtr[i+1] - out.RowPtr[i]
		out.ColIdx = append(out.ColIdx, cols[:cut]...)
		out.Values = append(out.Values, vals[:cut]...)
	}
	out.Renorm()
	return out
}

// RemapCols moves every column j to column to[j] of a matrix cols
// wide, re-sorting each row in place and re-caching the norms.
func (m *CSRMatrix) RemapCols(to []int32, cols int) {
	for i := range m.NumRows() {
		vals, idx := m.RowView(i)
		for p := range idx {
			idx[p] = to[idx[p]]
			// Insertion sort: a relayout moves few columns far.
			for q := p; q > 0 && idx[q] < idx[q-1]; q-- {
				idx[q], idx[q-1] = idx[q-1], idx[q]
				vals[q], vals[q-1] = vals[q-1], vals[q]
			}
		}
	}
	m.Cols = cols
	m.Renorm()
}

// NumRows reports the number of rows.
func (m *CSRMatrix) NumRows() int { return len(m.RowPtr) - 1 }

// NumCols reports the logical (dense) number of columns.
func (m *CSRMatrix) NumCols() int { return m.Cols }

// RowView returns the nonzero values and column indices of row i as
// shared (read-only) slices into the flat arrays.
func (m *CSRMatrix) RowView(i int) (vals []float64, cols []int32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Values[lo:hi], m.ColIdx[lo:hi]
}

// RowNorm2 returns the cached squared Euclidean norm of row i.
func (m *CSRMatrix) RowNorm2(i int) float64 { return m.rowNorm2[i] }

// Dense materializes the whole matrix as fresh dense rows sharing one
// contiguous backing array.
func (m *CSRMatrix) Dense() [][]float64 {
	n := m.NumRows()
	rows := make([][]float64, n)
	backing := make([]float64, n*m.Cols)
	for i := range rows {
		rows[i], backing = backing[:m.Cols:m.Cols], backing[m.Cols:]
		vals, cols := m.RowView(i)
		ScatterAdd(rows[i], vals, cols)
	}
	return rows
}
