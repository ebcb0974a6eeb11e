package vsm

import (
	"errors"
	"fmt"
	"slices"

	"adahealth/internal/dataset"
	"adahealth/internal/vec"
)

// Live is the VSM matrix of a log that grows by appended batches: new
// exam types, new patients and new records. It owns the accumulated
// dataset.Log and reads the log's dictionary encoding, so after every
// Append, Matrix is bit-for-bit Build on that log (property:
// Equivalent(live.Matrix(), rebuilt) == nil at every append boundary).
//
// Only the first matrix is Build on the log. After that an append
// costs what the batch holds, plus one pass over the matrix when the
// column layout or global weights moved:
//
//   - Live keeps every exam type's record count, adds the batch's to
//     them and orders the columns by them as Build does. When that
//     order changed (a ranking flip, or new exam types, which widen
//     every row), the raw counts move to their new columns in place.
//   - The batch's records are added to the raw counts, brand-new
//     patients getting new rows.
//   - After a relayout, or always under TFIDF (whose idf terms are
//     global in N and df), every row is re-weighed in place with
//     Build's idf arithmetic, and the CSR view is recompressed.
//     Otherwise only the rows the batch touched are re-weighed; a
//     batch of brand-new patients only appends rows to the cached CSR
//     view (vec.CSRMatrix.AppendDenseRows), and one that touched an
//     existing row recompresses it.
//
// Live is not safe for concurrent use; the owner serializes Append
// against reads of Matrix and Log (stream.Dataset holds its own lock).
type Live struct {
	opts Options
	log  *dataset.Log
	freq []int   // record count of every exam key
	keys []int32 // exam key of each Matrix column
	mat  *Matrix // nil until ≥1 patient and exam type
}

// NewLive returns an empty live matrix with the given transform
// options over an empty, unnamed log. Matrix() is nil until the first
// Append registers at least one patient and one exam type.
func NewLive(opts Options) *Live {
	return &Live{opts: opts, log: dataset.NewLog("")}
}

// Log returns the accumulated log. Callers may read it and set its
// Name; only Append adds rows to it.
func (lv *Live) Log() *dataset.Log { return lv.log }

// Matrix returns the maintained frequency-ordered view, nil before the
// first matrix. From then on the pointer is stable: every Append
// rewrites its Features, raw counts and Rows in place (rows and
// columns are added, counts and weights change, columns move). So
// nothing projects it: a Project shares its raw counts, and at full
// width is the matrix itself. A caller that needs a consistent
// snapshot must not retain it across Append calls.
func (lv *Live) Matrix() *Matrix { return lv.mat }

// Check reports why the log cannot take a batch, or nil if it can: a
// batch must hold something, and it must not register an empty, a
// registered or a repeated exam code or patient ID, nor hold a record
// naming an exam type or patient that neither the log nor the batch
// registers. It changes nothing.
func (lv *Live) Check(exams []dataset.ExamType, patients []dataset.Patient, records []dataset.Record) error {
	if len(exams) == 0 && len(patients) == 0 && len(records) == 0 {
		return errors.New("vsm: empty batch")
	}
	newExams := make(map[string]bool, len(exams))
	for _, e := range exams {
		if e.Code == "" {
			return errors.New("vsm: exam with empty code")
		}
		if _, dup := lv.log.Exam(e.Code); dup || newExams[e.Code] {
			return fmt.Errorf("vsm: duplicate exam code %q", e.Code)
		}
		newExams[e.Code] = true
	}
	newPatients := make(map[string]bool, len(patients))
	for _, p := range patients {
		if p.ID == "" {
			return errors.New("vsm: patient with empty ID")
		}
		if _, dup := lv.log.Patient(p.ID); dup || newPatients[p.ID] {
			return fmt.Errorf("vsm: duplicate patient ID %q", p.ID)
		}
		newPatients[p.ID] = true
	}
	for _, r := range records {
		if _, ok := lv.log.Patient(r.PatientID); !ok && !newPatients[r.PatientID] {
			return fmt.Errorf("vsm: record references unknown patient %q", r.PatientID)
		}
		if _, ok := lv.log.Exam(r.ExamCode); !ok && !newExams[r.ExamCode] {
			return fmt.Errorf("vsm: record references unknown exam code %q", r.ExamCode)
		}
	}
	return nil
}

// Append checks a batch, appends it to the log and brings the matrix
// up to date. A rejected batch leaves the log and the matrix as they
// were.
func (lv *Live) Append(exams []dataset.ExamType, patients []dataset.Patient, records []dataset.Record) error {
	if err := lv.Check(exams, patients, records); err != nil {
		return err
	}
	l := lv.log
	oldPatients, oldRecords := l.NumPatients(), l.NumRecords()
	// Check passed, so none of these can fail.
	for _, e := range exams {
		_ = l.AddExam(e)
	}
	for _, p := range patients {
		_ = l.AddPatient(p)
	}
	for _, r := range records {
		_ = l.AddRecord(r)
	}
	if l.NumPatients() == 0 || l.NumExamTypes() == 0 {
		return nil
	}

	enc := l.Encoded()
	lv.freq = addCounts(lv.freq, len(enc.ExamCodes), enc.Exam[oldRecords:])
	keys := featureOrder(enc, lv.freq)
	m := lv.mat
	if m == nil {
		m, err := Build(l, lv.opts)
		if err != nil {
			return err
		}
		// Fire the once up front so Sparse() keeps returning the
		// maintained pointer after in-place updates.
		m.Sparse()
		lv.mat, lv.keys = m, keys
		return nil
	}

	relayout := !slices.Equal(keys, lv.keys)
	if relayout {
		lv.relayout(enc, keys)
	}
	column := make([]int32, len(lv.freq))
	for j, k := range keys {
		column[k] = int32(j)
		m.featureFreq[j] = lv.freq[k]
	}
	m.totalRecords = l.NumRecords()
	d := len(keys)
	for _, p := range l.Patients[oldPatients:] {
		m.raw = append(m.raw, make([]float64, d))
		m.Rows = append(m.Rows, make([]float64, d))
		m.PatientIDs = append(m.PatientIDs, p.ID)
	}
	dirty := make(map[int32]bool)
	for i, p := range enc.Patient[oldRecords:] {
		m.raw[p][column[enc.Exam[oldRecords+i]]]++
		if int(p) < oldPatients {
			dirty[p] = true
		}
	}
	if relayout || m.Opts.Weighting == TFIDF {
		weighInto(m.Rows, m.raw, m.Opts)
		m.sparse = vec.NewCSRFromDense(m.Rows)
		return nil
	}

	// The column layout and the weights are local: only rows the
	// batch touched need new floats.
	for i := oldPatients; i < len(m.Rows); i++ {
		weighRowInto(m.Rows[i], m.raw[i], m.Opts, nil)
	}
	for p := range dirty {
		weighRowInto(m.Rows[p], m.raw[p], m.Opts, nil)
	}
	if len(dirty) == 0 {
		// Pure growth: extend the cached CSR view and its norms in
		// place; existing rows' compressed storage is untouched.
		m.Sparse().AppendDenseRows(m.Rows[oldPatients:])
	} else {
		// An existing row's nonzero pattern may have changed; CSR
		// storage is not splice-able, so recompress (O(n·d), no
		// record rescan).
		m.sparse = vec.NewCSRFromDense(m.Rows)
	}
	return nil
}

// relayout moves the matrix to the column order keys in place: every
// raw row's counts move to their exam's new column, and when new exam
// types arrived the raw and weighted rows widen (moving to a new
// backing array) and Features and the frequencies follow. The caller
// refills the frequencies and re-weighs every row.
func (lv *Live) relayout(enc *dataset.Encoded, keys []int32) {
	m := lv.mat
	d, was := len(keys), len(lv.keys)
	column := make([]int, len(lv.freq))
	for j, k := range keys {
		column[k] = j
	}
	to := make([]int, was) // the new column of each old one
	for j, k := range lv.keys {
		to[j] = column[k]
	}
	var rawBack, rowBack []float64
	if d > was {
		rawBack = make([]float64, len(m.raw)*d)
		rowBack = make([]float64, len(m.raw)*d)
	}
	old := make([]float64, was)
	for i, r := range m.raw {
		copy(old, r)
		if d > was {
			m.raw[i], rawBack = rawBack[:d:d], rawBack[d:]
			m.Rows[i], rowBack = rowBack[:d:d], rowBack[d:]
		}
		for j, v := range old {
			m.raw[i][to[j]] = v
		}
	}
	m.Features = m.Features[:0]
	for _, k := range keys {
		m.Features = append(m.Features, enc.ExamCodes[k])
	}
	m.featureFreq = append(m.featureFreq, make([]int, d-was)...)
	lv.keys = keys
}

// Equivalent reports whether two matrices are bit-for-bit identical in
// every observable respect: ids, features, options, weighted rows, raw
// counts, frequency metadata, and the CSR view including its cached
// norms. It forces both CSR views. A nil return means equal; otherwise
// the error names the first divergence. The live-maintenance property
// tests use it to compare an incrementally grown view against Build on
// the accumulated log at every append boundary.
func Equivalent(a, b *Matrix) error {
	if !slices.Equal(a.PatientIDs, b.PatientIDs) {
		return fmt.Errorf("vsm: patient ids differ")
	}
	if !slices.Equal(a.Features, b.Features) {
		return fmt.Errorf("vsm: features differ")
	}
	if a.Opts != b.Opts {
		return fmt.Errorf("vsm: options differ: %+v vs %+v", a.Opts, b.Opts)
	}
	if a.totalRecords != b.totalRecords {
		return fmt.Errorf("vsm: total records differ: %d vs %d", a.totalRecords, b.totalRecords)
	}
	for j := range a.featureFreq {
		if a.featureFreq[j] != b.featureFreq[j] {
			return fmt.Errorf("vsm: feature %q frequency differs: %d vs %d",
				a.Features[j], a.featureFreq[j], b.featureFreq[j])
		}
	}
	if err := rowsEqual("raw", a.raw, b.raw); err != nil {
		return err
	}
	if err := rowsEqual("weighted", a.Rows, b.Rows); err != nil {
		return err
	}
	sa, sb := a.Sparse(), b.Sparse()
	if sa.Cols != sb.Cols || len(sa.RowPtr) != len(sb.RowPtr) ||
		len(sa.ColIdx) != len(sb.ColIdx) || len(sa.Values) != len(sb.Values) {
		return fmt.Errorf("vsm: CSR shapes differ")
	}
	for i := range sa.RowPtr {
		if sa.RowPtr[i] != sb.RowPtr[i] {
			return fmt.Errorf("vsm: CSR row pointer %d differs: %d vs %d", i, sa.RowPtr[i], sb.RowPtr[i])
		}
	}
	for p := range sa.ColIdx {
		if sa.ColIdx[p] != sb.ColIdx[p] {
			return fmt.Errorf("vsm: CSR column index %d differs", p)
		}
		if sa.Values[p] != sb.Values[p] {
			return fmt.Errorf("vsm: CSR value %d differs: %v vs %v", p, sa.Values[p], sb.Values[p])
		}
	}
	for i := 0; i < sa.NumRows(); i++ {
		if sa.RowNorm2(i) != sb.RowNorm2(i) {
			return fmt.Errorf("vsm: CSR row %d norm differs: %v vs %v", i, sa.RowNorm2(i), sb.RowNorm2(i))
		}
	}
	return nil
}

func rowsEqual(what string, a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("vsm: %s row counts differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("vsm: %s row %d widths differ", what, i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("vsm: %s row %d col %d differs: %v vs %v",
					what, i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
