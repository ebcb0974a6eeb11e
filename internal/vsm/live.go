package vsm

import (
	"fmt"
	"sort"

	"adahealth/internal/dataset"
	"adahealth/internal/vec"
)

// Live maintains a VSM matrix under append-only growth of the
// underlying examination log: new exam types, new patients and new
// records arrive in batches and the feature-ordered Matrix view —
// including its weighted rows, cached norms and CSR view — is updated
// in place instead of re-running Build over the whole log.
//
// The maintained state is kept in canonical registration order (codes
// and patients in the order they first appeared), with the Matrix as a
// frequency-ordered projection of it. After every Append the view is
// bit-for-bit identical to Build on the accumulated log (property:
// Equivalent(live.Matrix(), rebuilt) == nil at every append boundary):
//
//   - When the global frequency ranking is unchanged, no new exam
//     types arrived and weighting is local (Count/Binary/LogCount),
//     only rows touched by the batch are re-weighed; brand-new patient
//     rows are appended to the cached CSR view in place
//     (vec.CSRMatrix.AppendDenseRows), leaving untouched rows' floats
//     alone entirely.
//   - A ranking change, a new exam type, or TFIDF weighting (whose idf
//     terms are global in N and df) re-derives the ordered view from
//     the canonical counts — still O(patients × features), never a
//     rescan of the accumulated records.
//
// Live is not safe for concurrent use; the owner serializes Append
// against reads of Matrix() (stream.Dataset holds its own lock).
type Live struct {
	opts Options

	codes   []string // canonical: registration order
	codeIdx map[string]int
	freq    []int // records per code, canonical order
	total   int   // total records

	ids   []string // canonical: registration order
	idIdx map[string]int
	raw   [][]float64 // counts per patient, canonical code order

	mat *Matrix // frequency-ordered view; nil until ≥1 patient and code
}

// NewLive returns an empty live matrix with the given transform
// options. Matrix() is nil until the first Append registers at least
// one patient and one exam type.
func NewLive(opts Options) *Live {
	return &Live{
		opts:    opts,
		codeIdx: make(map[string]int),
		idIdx:   make(map[string]int),
	}
}

// NumPatients reports the number of accumulated patients.
func (lv *Live) NumPatients() int { return len(lv.ids) }

// NumFeatures reports the number of accumulated exam types.
func (lv *Live) NumFeatures() int { return len(lv.codes) }

// NumRecords reports the number of accumulated examination records.
func (lv *Live) NumRecords() int { return lv.total }

// Matrix returns the maintained frequency-ordered view. The pointer is
// stable across fast-path appends and replaced wholesale on rebuilds;
// callers must not retain it across Append calls if they need a
// consistent snapshot.
func (lv *Live) Matrix() *Matrix { return lv.mat }

// Append applies one validated batch: newly registered exam types and
// patients plus records referencing registered ids (old or new). The
// whole batch is validated before any state mutates, so a failed
// Append leaves the view untouched — mirroring dataset.Log, which the
// stream layer updates with the same batch first.
func (lv *Live) Append(exams []dataset.ExamType, patients []dataset.Patient, records []dataset.Record) error {
	// Validate against current state plus the batch itself.
	newCodes := make(map[string]bool, len(exams))
	for _, e := range exams {
		if _, dup := lv.codeIdx[e.Code]; dup || newCodes[e.Code] {
			return fmt.Errorf("vsm: live append: duplicate exam type %q", e.Code)
		}
		newCodes[e.Code] = true
	}
	newIDs := make(map[string]bool, len(patients))
	for _, p := range patients {
		if _, dup := lv.idIdx[p.ID]; dup || newIDs[p.ID] {
			return fmt.Errorf("vsm: live append: duplicate patient %q", p.ID)
		}
		newIDs[p.ID] = true
	}
	for _, r := range records {
		if _, ok := lv.idIdx[r.PatientID]; !ok && !newIDs[r.PatientID] {
			return fmt.Errorf("vsm: live append: record references unknown patient %q", r.PatientID)
		}
		if _, ok := lv.codeIdx[r.ExamCode]; !ok && !newCodes[r.ExamCode] {
			return fmt.Errorf("vsm: live append: record references unknown exam %q", r.ExamCode)
		}
	}

	// Grow canonical state: new code columns on every existing row,
	// then new zero rows, then the count increments.
	if len(exams) > 0 {
		for i := range lv.raw {
			lv.raw[i] = append(lv.raw[i], make([]float64, len(exams))...)
		}
		for _, e := range exams {
			lv.codeIdx[e.Code] = len(lv.codes)
			lv.codes = append(lv.codes, e.Code)
			lv.freq = append(lv.freq, 0)
		}
	}
	startPatients := len(lv.ids)
	for _, p := range patients {
		lv.idIdx[p.ID] = len(lv.ids)
		lv.ids = append(lv.ids, p.ID)
		lv.raw = append(lv.raw, make([]float64, len(lv.codes)))
	}
	dirty := make(map[int]bool)
	for _, r := range records {
		p := lv.idIdx[r.PatientID]
		c := lv.codeIdx[r.ExamCode]
		lv.raw[p][c]++
		lv.freq[c]++
		lv.total++
		if p < startPatients {
			dirty[p] = true
		}
	}

	lv.sync(startPatients, dirty, len(exams) > 0)
	return nil
}

// sync reconciles the frequency-ordered Matrix view with the canonical
// state after one applied batch.
func (lv *Live) sync(startPatients int, dirty map[int]bool, codesAdded bool) {
	if len(lv.ids) == 0 || len(lv.codes) == 0 {
		return
	}
	order := lv.featureOrder()
	features := make([]string, len(order))
	for k, c := range order {
		features[k] = lv.codes[c]
	}

	m := lv.mat
	fast := m != nil && !codesAdded && lv.opts.Weighting != TFIDF &&
		stringsEqual(m.Features, features)
	if !fast {
		lv.rebuild(order, features)
		return
	}

	// Fast path: the column layout is unchanged, so only rows the
	// batch touched need new floats. The per-feature frequencies
	// still moved (same ranking, larger counts).
	for k, c := range order {
		m.featureFreq[k] = lv.freq[c]
	}
	m.totalRecords = lv.total

	d := len(features)
	var appended [][]float64
	for i := startPatients; i < len(lv.ids); i++ {
		rr := make([]float64, d)
		for k, c := range order {
			rr[k] = lv.raw[i][c]
		}
		out := make([]float64, d)
		weighRowInto(out, rr, m.Opts, nil)
		m.raw = append(m.raw, rr)
		m.Rows = append(m.Rows, out)
		m.PatientIDs = append(m.PatientIDs, lv.ids[i])
		appended = append(appended, out)
	}
	for i := range dirty {
		for k, c := range order {
			m.raw[i][k] = lv.raw[i][c]
		}
		weighRowInto(m.Rows[i], m.raw[i], m.Opts, nil)
	}
	if len(dirty) == 0 {
		// Pure growth: extend the cached CSR view and its norms in
		// place; existing rows' compressed storage is untouched.
		m.Sparse().AppendDenseRows(appended)
	} else {
		// An existing row's nonzero pattern may have changed; CSR
		// storage is not splice-able, so recompress (O(n·d), no
		// record rescan).
		m.sparse = vec.NewCSRFromDense(m.Rows)
	}
}

// rebuild re-derives the ordered view from the canonical counts.
func (lv *Live) rebuild(order []int, features []string) {
	n, d := len(lv.ids), len(features)
	raw := make([][]float64, n)
	backing := make([]float64, n*d)
	for i := range raw {
		raw[i], backing = backing[:d:d], backing[d:]
		for k, c := range order {
			raw[i][k] = lv.raw[i][c]
		}
	}
	freq := make([]int, d)
	for k, c := range order {
		freq[k] = lv.freq[c]
	}
	ids := make([]string, n)
	copy(ids, lv.ids)

	m := &Matrix{
		PatientIDs:   ids,
		Features:     features,
		Opts:         lv.opts,
		raw:          raw,
		featureFreq:  freq,
		totalRecords: lv.total,
	}
	m.Rows = weigh(raw, lv.opts)
	// Fire the once up front so Sparse() keeps returning the
	// maintained pointer after in-place updates.
	m.sparseOnce.Do(func() { m.sparse = vec.NewCSRFromDense(m.Rows) })
	lv.mat = m
}

// featureOrder returns canonical code indices sorted by global record
// frequency descending, code ascending — the exact ordering contract
// Build applies to the log's exam keys.
func (lv *Live) featureOrder() []int {
	order := make([]int, len(lv.codes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if lv.freq[ca] != lv.freq[cb] {
			return lv.freq[ca] > lv.freq[cb]
		}
		return lv.codes[ca] < lv.codes[cb]
	})
	return order
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equivalent reports whether two matrices are bit-for-bit identical in
// every observable respect: ids, features, options, weighted rows, raw
// counts, frequency metadata, and the CSR view including its cached
// norms. It forces both CSR views. A nil return means equal; otherwise
// the error names the first divergence. The live-maintenance property
// tests use it to compare an incrementally grown view against Build on
// the accumulated log at every append boundary.
func Equivalent(a, b *Matrix) error {
	if !stringsEqual(a.PatientIDs, b.PatientIDs) {
		return fmt.Errorf("vsm: patient ids differ")
	}
	if !stringsEqual(a.Features, b.Features) {
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
