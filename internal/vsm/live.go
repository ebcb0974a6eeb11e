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
// Only the first matrix is Build on the log. After that both CSR
// matrices, the raw counts and the weighted Rows, are kept in place,
// and an append costs what the batch holds, plus one pass over the
// nonzeros when the column layout or global weights moved:
//
//   - Live keeps every exam type's record count, adds the batch's to
//     them and orders the columns by them as Build does. When that
//     order changed (a ranking flip, or new exam types), the raw
//     counts' column indices are remapped and each row re-sorted
//     (vec.CSRMatrix.RemapCols); new exam types only widen Cols.
//   - Brand-new patients are appended as rows, and every row the
//     batch's records touch is spliced: its new counts replace it
//     (vec.CSRMatrix.SetRow), moving the rows after it.
//   - After a relayout, or always under TFIDF (whose idf terms are
//     global in N and df), every row is re-weighed into the weighted
//     matrix's own arrays with Build's idf arithmetic. Otherwise only
//     the rows the batch touched are re-weighed and spliced. Under
//     Count without normalization the two matrices are one, so there
//     is nothing to re-weigh.
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
	for _, p := range l.Patients[oldPatients:] {
		m.PatientIDs = append(m.PatientIDs, p.ID)
	}
	shared := m.Rows == m.raw
	m.raw.AppendEmptyRows(len(patients))
	if !shared {
		m.Rows.AppendEmptyRows(len(patients))
	}
	full := relayout || m.Opts.Weighting == TFIDF
	// The batch's cells by patient: one splice per touched row.
	cells := make([]uint64, len(records))
	for i, p := range enc.Patient[oldRecords:] {
		cells[i] = uint64(p)<<32 | uint64(column[enc.Exam[oldRecords+i]])
	}
	slices.Sort(cells)
	var vals, wvals []float64
	var cols, wcols []int32
	for len(cells) > 0 {
		p := int(cells[0] >> 32)
		rv, rc := m.raw.RowView(p)
		vals, cols = append(vals[:0], rv...), append(cols[:0], rc...)
		for ; len(cells) > 0 && int(cells[0]>>32) == p; cells = cells[1:] {
			c := int32(uint32(cells[0]))
			j, found := slices.BinarySearch(cols, c)
			if !found {
				cols, vals = slices.Insert(cols, j, c), slices.Insert(vals, j, 0)
			}
			vals[j]++
		}
		m.raw.SetRow(p, vals, cols)
		if !shared && !full {
			wvals, wcols = weighRow(wvals[:0], wcols[:0], vals, cols, m.Opts, nil)
			m.Rows.SetRow(p, wvals, wcols)
		}
	}
	if !shared && full {
		weighInto(m.Rows, m.raw, m.Opts)
	}
	return nil
}

// relayout moves the raw counts to the column order keys in place:
// every column index moves to its exam's new column and each row is
// re-sorted, new exam types widening the matrix, and Features and the
// frequencies follow. The caller refills the frequencies and re-weighs
// every row.
func (lv *Live) relayout(enc *dataset.Encoded, keys []int32) {
	m := lv.mat
	d, was := len(keys), len(lv.keys)
	column := make([]int32, len(lv.freq))
	for j, k := range keys {
		column[k] = int32(j)
	}
	to := make([]int32, was) // the new column of each old one
	for j, k := range lv.keys {
		to[j] = column[k]
	}
	m.raw.RemapCols(to, d)
	m.Features = m.Features[:0]
	for _, k := range keys {
		m.Features = append(m.Features, enc.ExamCodes[k])
	}
	m.featureFreq = append(m.featureFreq, make([]int, d-was)...)
	lv.keys = keys
}

// Equivalent reports whether two matrices are bit-for-bit identical in
// every observable respect: ids, features, options, raw counts and
// weighted rows as CSR (cached norms included), and frequency
// metadata. A nil return means equal; otherwise the error names the
// first divergence. The live-maintenance property tests use it to
// compare an incrementally grown view against Build on the accumulated
// log at every append boundary.
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
	for _, c := range []struct {
		what   string
		sa, sb *vec.CSRMatrix
	}{{"raw", a.raw, b.raw}, {"weighted", a.Rows, b.Rows}} {
		what, sa, sb := c.what, c.sa, c.sb
		if sa.Cols != sb.Cols || !slices.Equal(sa.RowPtr, sb.RowPtr) {
			return fmt.Errorf("vsm: %s shapes differ", what)
		}
		for p := range sa.ColIdx {
			if sa.ColIdx[p] != sb.ColIdx[p] || sa.Values[p] != sb.Values[p] {
				return fmt.Errorf("vsm: %s nonzero %d differs: %v@%d vs %v@%d",
					what, p, sa.Values[p], sa.ColIdx[p], sb.Values[p], sb.ColIdx[p])
			}
		}
		for i := range sa.NumRows() {
			if sa.RowNorm2(i) != sb.RowNorm2(i) {
				return fmt.Errorf("vsm: %s row %d norm differs: %v vs %v", what, i, sa.RowNorm2(i), sb.RowNorm2(i))
			}
		}
	}
	return nil
}
