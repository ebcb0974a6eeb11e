package vec

import "fmt"

// CSRMatrix is a compressed-sparse-row matrix: the nonzeros of row i
// are Values[RowPtr[i]:RowPtr[i+1]], with their column indices in the
// parallel ColIdx range. All three arrays are flat and contiguous, so
// a row scan is a pure linear walk. The squared Euclidean norm of each
// row is cached at construction; the clustering kernel combines it
// with per-iteration centroid norms through the identity
//
//	‖x−c‖² = ‖x‖² + ‖c‖² − 2⟨x,c⟩
//
// so an assignment step costs O(nnz(x)) per centroid instead of O(d).
type CSRMatrix struct {
	Cols   int
	RowPtr []int // len NumRows()+1
	ColIdx []int32
	Values []float64

	rowNorm2 []float64 // cached ‖row‖² per row
}

// Density returns the fraction of nonzero cells in dense rows, in
// [0,1]. Callers use it to decide whether building a CSR view pays
// before materializing one.
func Density(rows [][]float64) float64 {
	cells, nnz := 0, 0
	for _, r := range rows {
		cells += len(r)
		for _, v := range r {
			if v != 0 {
				nnz++
			}
		}
	}
	if cells == 0 {
		return 0
	}
	return float64(nnz) / float64(cells)
}

// NewCSRFromDense compresses dense rows (all of equal length) into CSR
// form. It panics on ragged input, mirroring the dense helpers.
func NewCSRFromDense(rows [][]float64) *CSRMatrix {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	nnz := 0
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("vec: NewCSRFromDense row %d has %d cols, want %d", i, len(r), cols))
		}
		for _, v := range r {
			if v != 0 {
				nnz++
			}
		}
	}
	m := &CSRMatrix{
		Cols:     cols,
		RowPtr:   make([]int, len(rows)+1),
		ColIdx:   make([]int32, 0, nnz),
		Values:   make([]float64, 0, nnz),
		rowNorm2: make([]float64, len(rows)),
	}
	for i, r := range rows {
		n2 := 0.0
		for j, v := range r {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Values = append(m.Values, v)
				n2 += v * v
			}
		}
		m.RowPtr[i+1] = len(m.Values)
		m.rowNorm2[i] = n2
	}
	return m
}

// AppendDenseRows extends the matrix in place with additional dense
// rows (each of exactly NumCols entries; panics on mismatch, mirroring
// NewCSRFromDense). The nonzero scan, row-pointer bookkeeping and
// cached-norm arithmetic are identical to construction, so a matrix
// grown by appends is bit-for-bit equal to NewCSRFromDense over the
// concatenated rows.
func (m *CSRMatrix) AppendDenseRows(rows [][]float64) {
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("vec: AppendDenseRows row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		n2 := 0.0
		for j, v := range r {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Values = append(m.Values, v)
				n2 += v * v
			}
		}
		m.RowPtr = append(m.RowPtr, len(m.Values))
		m.rowNorm2 = append(m.rowNorm2, n2)
	}
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
		for p, v := range vals {
			rows[i][cols[p]] = v
		}
	}
	return rows
}
