// Package vsm implements the Vector Space Model data transformation of
// ADA-HEALTH's preprocessing block: each patient becomes a vector over
// examination types (his/her examination history), with selectable
// term weighting and row normalization. Features are ordered by
// decreasing global frequency, which is exactly the order the
// horizontal partial-mining strategy consumes (Section IV-B).
//
// The matrix is stored sparse from the start: patients have a few
// dozen of the hundreds of exam types, so Build counts the records
// straight into a vec.CSRMatrix, Project cuts each row at a column,
// and Live splices rows in place. No step holds a dense patient ×
// exam-type array, so memory grows with the records, not with
// patients × exam types.
package vsm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"adahealth/internal/dataset"
	"adahealth/internal/vec"
)

// Weighting selects how raw exam counts are turned into vector entries.
type Weighting int

const (
	// Count keeps the raw number of times the patient underwent the
	// exam (the representation used in the paper's experiments).
	Count Weighting = iota
	// Binary records only presence/absence.
	Binary
	// LogCount applies log(1+count) damping.
	LogCount
	// TFIDF multiplies counts by the inverse document frequency
	// log(N/df) of the exam type across patients.
	TFIDF
)

func (w Weighting) String() string {
	switch w {
	case Count:
		return "count"
	case Binary:
		return "binary"
	case LogCount:
		return "logcount"
	case TFIDF:
		return "tfidf"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// Valid reports whether w names a known weighting.
func (w Weighting) Valid() bool { return w >= Count && w <= TFIDF }

// Normalization selects per-row normalization applied after weighting.
type Normalization int

const (
	// NoNorm leaves rows as weighted.
	NoNorm Normalization = iota
	// L2 scales each row to unit Euclidean norm (required by the
	// cosine-based overall-similarity index).
	L2
	// L1 scales each row to unit sum.
	L1
)

func (n Normalization) String() string {
	switch n {
	case NoNorm:
		return "none"
	case L2:
		return "l2"
	case L1:
		return "l1"
	default:
		return fmt.Sprintf("Normalization(%d)", int(n))
	}
}

// Valid reports whether n names a known normalization.
func (n Normalization) Valid() bool { return n >= NoNorm && n <= L1 }

// Options configures the transformation.
type Options struct {
	Weighting     Weighting
	Normalization Normalization
}

// Matrix is the patient × exam-type matrix produced by Build. Features
// are ordered by decreasing global frequency; rows follow patient
// registration order. The raw counts and the weighted Rows are both
// CSR matrices, and under the default Count weighting without
// normalization they are one matrix.
type Matrix struct {
	PatientIDs []string
	Features   []string // exam codes, most frequent first
	Rows       *vec.CSRMatrix
	Opts       Options

	raw          *vec.CSRMatrix // raw counts, feature order as Features
	featureFreq  []int          // global record count per feature
	totalRecords int
}

// Build constructs the VSM matrix for a log.
func Build(l *dataset.Log, opts Options) (*Matrix, error) {
	if l.NumPatients() == 0 {
		return nil, fmt.Errorf("vsm: log has no patients")
	}
	if l.NumExamTypes() == 0 {
		return nil, fmt.Errorf("vsm: log has no exam types")
	}
	enc := l.Encoded()
	keyFreq := addCounts(nil, len(enc.ExamCodes), enc.Exam)
	keys := featureOrder(enc, keyFreq)
	features := make([]string, len(keys))
	freq := make([]int, len(keys))
	column := make([]int32, len(keyFreq))
	for i, k := range keys {
		features[i] = enc.ExamCodes[k]
		freq[i] = keyFreq[k]
		column[k] = int32(i)
	}
	ids := make([]string, l.NumPatients())
	for i, p := range l.Patients {
		ids[i] = p.ID
	}

	// Count straight into CSR: bucket the records' columns by patient
	// (a counting sort), sort each patient's bucket and collapse its
	// repeats into counts, compacting the buckets in place.
	n := len(ids)
	rowPtr := make([]int, n+1)
	for i, p := range enc.Patient {
		if int(p) >= enc.NumPatients {
			r := l.Records[i]
			return nil, fmt.Errorf("vsm: record references unknown patient %q or exam %q",
				r.PatientID, r.ExamCode)
		}
		rowPtr[p+1]++
	}
	for i := range n {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, len(enc.Patient))
	next := slices.Clone(rowPtr[:n])
	for i, p := range enc.Patient {
		colIdx[next[p]] = column[enc.Exam[i]]
		next[p]++
	}
	nnz := 0
	for i := range n {
		bucket := colIdx[rowPtr[i]:rowPtr[i+1]]
		slices.Sort(bucket)
		for p := range bucket {
			if p == 0 || bucket[p] != bucket[p-1] {
				nnz++
			}
		}
	}
	values := make([]float64, 0, nnz)
	for i := range n {
		lo, hi := rowPtr[i], rowPtr[i+1]
		rowPtr[i] = len(values)
		for p := lo; p < hi; p++ {
			if c := colIdx[p]; p > lo && c == colIdx[len(values)-1] {
				values[len(values)-1]++
			} else {
				colIdx[len(values)] = c
				values = append(values, 1)
			}
		}
	}
	rowPtr[n] = nnz
	raw := &vec.CSRMatrix{Cols: len(features), RowPtr: rowPtr, ColIdx: colIdx[:nnz:nnz], Values: values}
	raw.Renorm()

	return &Matrix{
		PatientIDs:   ids,
		Features:     features,
		Rows:         weigh(raw, opts),
		Opts:         opts,
		raw:          raw,
		featureFreq:  freq,
		totalRecords: l.NumRecords(),
	}, nil
}

// addCounts grows freq, the record count of each exam key, to n keys
// and counts one more record for every entry of exams.
func addCounts(freq []int, n int, exams []int32) []int {
	freq = append(freq, make([]int, n-len(freq))...)
	for _, x := range exams {
		freq[x]++
	}
	return freq
}

// featureOrder returns the column order of a Matrix over enc, given
// every exam key's record count: the distinct exam keys, unregistered
// ones included, by decreasing record count, ties broken by code.
// Build and Live both order columns by it.
func featureOrder(enc *dataset.Encoded, keyFreq []int) []int32 {
	keys := make([]int32, 0, len(keyFreq))
	for k := range keyFreq {
		if enc.IsExamKey(k) {
			keys = append(keys, int32(k))
		}
	}
	slices.SortFunc(keys, func(a, b int32) int {
		if c := cmp.Compare(keyFreq[b], keyFreq[a]); c != 0 {
			return c
		}
		return strings.Compare(enc.ExamCodes[a], enc.ExamCodes[b])
	})
	return keys
}

// weigh applies weighting + normalization to a raw count matrix. Under
// Count without normalization the weights are the counts, and the raw
// matrix itself is returned; otherwise the weighted matrix is fresh.
func weigh(raw *vec.CSRMatrix, opts Options) *vec.CSRMatrix {
	if opts == (Options{}) {
		return raw
	}
	w := &vec.CSRMatrix{
		RowPtr: make([]int, 1, raw.NumRows()+1),
		ColIdx: make([]int32, 0, len(raw.ColIdx)),
		Values: make([]float64, 0, len(raw.Values)),
	}
	weighInto(w, raw, opts)
	return w
}

// weighInto rewrites w, reusing its arrays, as the weighted matrix of
// raw, which holds at least one row. Build weighs fresh matrices
// through it and Live re-weighs its matrix in place.
func weighInto(w, raw *vec.CSRMatrix, opts Options) {
	var idf []float64
	if opts.Weighting == TFIDF {
		df := make([]int, raw.Cols)
		for _, j := range raw.ColIdx {
			df[j]++
		}
		idf = make([]float64, raw.Cols)
		for j, c := range df {
			if c > 0 {
				idf[j] = math.Log(float64(raw.NumRows()) / float64(c))
			}
		}
	}
	w.Cols, w.RowPtr, w.ColIdx, w.Values = raw.Cols, w.RowPtr[:1], w.ColIdx[:0], w.Values[:0]
	for i := range raw.NumRows() {
		rv, rc := raw.RowView(i)
		w.Values, w.ColIdx = weighRow(w.Values, w.ColIdx, rv, rc, opts, idf)
		w.RowPtr = append(w.RowPtr, len(w.Values))
	}
	w.Renorm()
}

// weighRow appends the weighted nonzeros of one raw row (the counts rv
// at the columns rc) to vals and cols. A weight that comes out zero —
// the idf of an exam every patient had — is left out. idf is consulted
// only for TFIDF. The batch transform and the live incremental
// maintenance path (Live) both run every row through this one
// function, so per-row arithmetic — including the column order of the
// norm sums — is bit-for-bit identical by construction.
func weighRow(vals []float64, cols []int32, rv []float64, rc []int32, opts Options, idf []float64) ([]float64, []int32) {
	start := len(vals)
	for p, v := range rv {
		switch opts.Weighting {
		case Binary:
			v = 1
		case LogCount:
			v = math.Log1p(v)
		case TFIDF:
			v *= idf[rc[p]]
		}
		vals = append(vals, v)
	}
	out := vals[start:]
	switch opts.Normalization {
	case L2:
		s := 0.0
		for _, v := range out {
			s += float64(v * v)
		}
		if s > 0 {
			inv := 1 / math.Sqrt(s)
			for j := range out {
				out[j] *= inv
			}
		}
	case L1:
		s := 0.0
		for _, v := range out {
			s += math.Abs(v)
		}
		if s > 0 {
			for j := range out {
				out[j] /= s
			}
		}
	}
	n := start
	for p, v := range out {
		if v != 0 {
			vals[n] = v
			cols = append(cols, rc[p])
			n++
		}
	}
	return vals[:n], cols
}

// NumRows reports the number of patients.
func (m *Matrix) NumRows() int { return m.Rows.NumRows() }

// NumFeatures reports the number of exam-type columns.
func (m *Matrix) NumFeatures() int { return len(m.Features) }

// CoverageAt returns the fraction of original records represented by
// the first n (most frequent) features — the "percentage of raw data"
// the paper reports for each partial-mining step.
func (m *Matrix) CoverageAt(n int) float64 {
	if m.totalRecords == 0 || n <= 0 {
		return 0
	}
	if n > len(m.featureFreq) {
		n = len(m.featureFreq)
	}
	covered := 0
	for _, c := range m.featureFreq[:n] {
		covered += c
	}
	return float64(covered) / float64(m.totalRecords)
}

// FeaturesForCoverage returns the smallest feature-prefix length whose
// record coverage reaches the target fraction.
func (m *Matrix) FeaturesForCoverage(target float64) int {
	if target <= 0 {
		return 0
	}
	covered := 0
	for i, c := range m.featureFreq {
		covered += c
		if float64(covered) >= target*float64(m.totalRecords) {
			return i + 1
		}
	}
	return len(m.featureFreq)
}

// Project returns a Matrix restricted to the first n features: each
// row is cut at its first column at or past n, and weighting and
// normalization are re-derived from the raw counts so that e.g. IDF
// and row norms are consistent with the reduced space. All patients
// are retained (the paper's horizontal strategy keeps the total number
// of patients). When n keeps every feature, re-deriving would
// reproduce m exactly, so Project returns m itself. That sharing is
// sound because a built matrix is never written; nothing projects a
// Live matrix, which changes in place.
func (m *Matrix) Project(n int) *Matrix {
	if n <= 0 {
		n = 1
	}
	if n >= m.NumFeatures() {
		return m
	}
	raw := m.raw.Prefix(n)
	return &Matrix{
		PatientIDs:   m.PatientIDs,
		Features:     m.Features[:n:n],
		Rows:         weigh(raw, m.Opts),
		Opts:         m.Opts,
		raw:          raw,
		featureFreq:  m.featureFreq[:n:n],
		totalRecords: m.totalRecords,
	}
}

// Sparsity returns the fraction of zero cells in the raw count matrix.
func (m *Matrix) Sparsity() float64 {
	cells := m.raw.NumRows() * m.raw.Cols
	if cells == 0 {
		return 0
	}
	return float64(cells-len(m.raw.Values)) / float64(cells)
}
