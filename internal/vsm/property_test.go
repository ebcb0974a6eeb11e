package vsm

import (
	"math"
	"testing"
	"testing/quick"

	"adahealth/internal/dataset"
)

// buildFromCounts constructs a log whose VSM count matrix equals the
// given small count table (patients × 4 exam types).
func buildFromCounts(counts [][4]uint8) (*dataset.Log, bool) {
	if len(counts) == 0 {
		return nil, false
	}
	l := dataset.NewLog("prop")
	codes := []string{"A", "B", "C", "D"}
	for _, c := range codes {
		if err := l.AddExam(dataset.ExamType{Code: c}); err != nil {
			return nil, false
		}
	}
	anyRecord := false
	for i, row := range counts {
		id := "P" + string(rune('A'+i%26)) + string(rune('A'+(i/26)%26))
		if _, exists := l.Patient(id); exists {
			continue
		}
		if err := l.AddPatient(dataset.Patient{ID: id}); err != nil {
			return nil, false
		}
		for j, n := range row {
			for r := 0; r < int(n)%5; r++ { // cap repeats to keep it fast
				if err := l.AddRecord(dataset.Record{PatientID: id, ExamCode: codes[j]}); err != nil {
					return nil, false
				}
				anyRecord = true
			}
		}
	}
	return l, anyRecord
}

// Property: every non-zero row of an L2-normalized matrix has unit
// norm, for arbitrary count tables.
func TestPropertyL2RowsUnitNorm(t *testing.T) {
	f := func(counts [][4]uint8) bool {
		l, ok := buildFromCounts(counts)
		if !ok {
			return true // vacuous: no data
		}
		m, err := Build(l, Options{Weighting: Count, Normalization: L2})
		if err != nil {
			return true
		}
		for _, row := range m.Rows.Dense() {
			norm := 0.0
			for _, v := range row {
				norm += v * v
			}
			if norm > 0 && math.Abs(math.Sqrt(norm)-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: coverage is monotone non-decreasing in the feature-prefix
// length and reaches exactly 1 at the full feature set.
func TestPropertyCoverageMonotone(t *testing.T) {
	f := func(counts [][4]uint8) bool {
		l, ok := buildFromCounts(counts)
		if !ok {
			return true
		}
		m, err := Build(l, Options{})
		if err != nil {
			return true
		}
		prev := 0.0
		for n := 1; n <= m.NumFeatures(); n++ {
			c := m.CoverageAt(n)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(m.CoverageAt(m.NumFeatures())-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: projection never changes the number of patients and the
// projected raw counts are a prefix of the original ones.
func TestPropertyProjectPrefix(t *testing.T) {
	f := func(counts [][4]uint8, nRaw uint8) bool {
		l, ok := buildFromCounts(counts)
		if !ok {
			return true
		}
		m, err := Build(l, Options{Weighting: Count})
		if err != nil {
			return true
		}
		n := 1 + int(nRaw)%m.NumFeatures()
		p := m.Project(n)
		if p.NumRows() != m.NumRows() || p.NumFeatures() != n {
			return false
		}
		for i, row := range p.RawCounts() {
			for j, v := range row {
				if v != m.RawCounts()[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// RawCounts returns the raw count rows, densely.
func (m *Matrix) RawCounts() [][]float64 { return m.raw.Dense() }
