// Package vsm implements the Vector Space Model data transformation of
// ADA-HEALTH's preprocessing block: each patient becomes a vector over
// examination types (his/her examination history), with selectable
// term weighting and row normalization. Features are ordered by
// decreasing global frequency, which is exactly the order the
// horizontal partial-mining strategy consumes (Section IV-B).
package vsm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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

// Options configures the transformation.
type Options struct {
	Weighting     Weighting
	Normalization Normalization
}

// Matrix is the patient × exam-type matrix produced by Build. Features
// are ordered by decreasing global frequency; rows follow patient
// registration order.
type Matrix struct {
	PatientIDs []string
	Features   []string // exam codes, most frequent first
	Rows       [][]float64
	Opts       Options

	raw          [][]float64 // raw counts, feature order as Features
	featureFreq  []int       // global record count per feature
	totalRecords int

	sparseOnce sync.Once
	sparse     *vec.CSRMatrix
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

	raw := make([][]float64, len(ids))
	backing := make([]float64, len(ids)*len(features))
	for i := range raw {
		raw[i], backing = backing[:len(features)], backing[len(features):]
	}
	for i, p := range enc.Patient {
		if int(p) >= enc.NumPatients {
			r := l.Records[i]
			return nil, fmt.Errorf("vsm: record references unknown patient %q or exam %q",
				r.PatientID, r.ExamCode)
		}
		raw[p][column[enc.Exam[i]]]++
	}

	m := &Matrix{
		PatientIDs:   ids,
		Features:     features,
		Opts:         opts,
		raw:          raw,
		featureFreq:  freq,
		totalRecords: l.NumRecords(),
	}
	m.Rows = weigh(raw, opts)
	return m, nil
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

// weigh applies weighting + normalization to a raw count matrix,
// returning fresh rows.
func weigh(raw [][]float64, opts Options) [][]float64 {
	n := len(raw)
	if n == 0 {
		return nil
	}
	d := len(raw[0])
	rows := make([][]float64, n)
	backing := make([]float64, n*d)
	for i := range rows {
		rows[i], backing = backing[:d], backing[d:]
	}
	weighInto(rows, raw, opts)
	return rows
}

// weighInto writes every weighted row of raw, which holds at least one
// row, into rows of the same shape. Build weighs fresh rows through it
// and Live re-weighs its rows in place.
func weighInto(rows, raw [][]float64, opts Options) {
	var idf []float64
	if opts.Weighting == TFIDF {
		n, d := len(raw), len(raw[0])
		df := make([]int, d)
		for _, r := range raw {
			for j, v := range r {
				if v > 0 {
					df[j]++
				}
			}
		}
		idf = make([]float64, d)
		for j, c := range df {
			if c > 0 {
				idf[j] = math.Log(float64(n) / float64(c))
			}
		}
	}
	for i, r := range raw {
		weighRowInto(rows[i], r, opts, idf)
	}
}

// weighRowInto applies weighting + normalization to a single raw row,
// writing every cell of out (len(out) == len(r)), so a row re-weighed
// in place keeps nothing of its old values. idf is consulted only for
// TFIDF. The batch transform and the live incremental maintenance path
// (Live) both run every row through this one function, so per-row
// arithmetic — including the column order of the norm sums — is
// bit-for-bit identical by construction.
func weighRowInto(out, r []float64, opts Options, idf []float64) {
	for j, v := range r {
		switch opts.Weighting {
		case Count:
			out[j] = v
		case Binary:
			out[j] = 0
			if v > 0 {
				out[j] = 1
			}
		case LogCount:
			out[j] = math.Log1p(v)
		case TFIDF:
			out[j] = v * idf[j]
		}
	}
	switch opts.Normalization {
	case L2:
		s := 0.0
		for _, v := range out {
			s += v * v
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
}

// NumRows reports the number of patients.
func (m *Matrix) NumRows() int { return len(m.Rows) }

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

// Project returns a Matrix restricted to the first n features,
// re-deriving weighting and normalization from the raw counts so that
// e.g. IDF and row norms are consistent with the reduced space. All
// patients are retained (the paper's horizontal strategy keeps the
// total number of patients). When n keeps every feature, re-deriving
// would reproduce m exactly, so Project returns m itself, and its
// cached sparse view with it. That sharing is sound because Rows are
// immutable after Build and Project; nothing projects a Live matrix,
// whose rows change in place.
func (m *Matrix) Project(n int) *Matrix {
	if n <= 0 {
		n = 1
	}
	if n >= m.NumFeatures() {
		return m
	}
	raw := make([][]float64, len(m.raw))
	for i, r := range m.raw {
		raw[i] = r[:n:n]
	}
	out := &Matrix{
		PatientIDs:   m.PatientIDs,
		Features:     m.Features[:n:n],
		Opts:         m.Opts,
		raw:          raw,
		featureFreq:  m.featureFreq[:n:n],
		totalRecords: m.totalRecords,
	}
	out.Rows = weigh(raw, m.Opts)
	return out
}

// Sparse returns the CSR view of Rows, built once on first use and
// cached (Rows are immutable after Build/Project; Live keeps its view
// in step). The clustering pipeline hands this shared view to the
// sparse K-means kernel so the whole Table I sweep compresses the
// matrix exactly once.
func (m *Matrix) Sparse() *vec.CSRMatrix {
	m.sparseOnce.Do(func() { m.sparse = vec.NewCSRFromDense(m.Rows) })
	return m.sparse
}

// Sparsity returns the fraction of zero cells in the raw count matrix.
func (m *Matrix) Sparsity() float64 {
	cells, zeros := 0, 0
	for _, r := range m.raw {
		cells += len(r)
		for _, v := range r {
			if v == 0 {
				zeros++
			}
		}
	}
	if cells == 0 {
		return 0
	}
	return float64(zeros) / float64(cells)
}
