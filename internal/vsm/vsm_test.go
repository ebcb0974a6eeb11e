package vsm

import (
	"math"
	"slices"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/synth"
)

func day(d int) time.Time {
	return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
}

func vsmLog(t *testing.T) *dataset.Log {
	t.Helper()
	l := dataset.NewLog("vsm")
	for _, c := range []string{"A", "B", "C"} {
		if err := l.AddExam(dataset.ExamType{Code: c, Name: c}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"P1", "P2"} {
		if err := l.AddPatient(dataset.Patient{ID: id, Age: 40}); err != nil {
			t.Fatal(err)
		}
	}
	// Frequencies: B=3, A=2, C=1 → feature order B, A, C.
	recs := []dataset.Record{
		{PatientID: "P1", ExamCode: "B", Date: day(0)},
		{PatientID: "P1", ExamCode: "B", Date: day(1)},
		{PatientID: "P1", ExamCode: "A", Date: day(2)},
		{PatientID: "P2", ExamCode: "B", Date: day(0)},
		{PatientID: "P2", ExamCode: "A", Date: day(1)},
		{PatientID: "P2", ExamCode: "C", Date: day(2)},
	}
	for _, r := range recs {
		if err := l.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestBuildCountMatrix(t *testing.T) {
	m, err := Build(vsmLog(t), Options{Weighting: Count})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.NumRows() != 2 || m.NumFeatures() != 3 {
		t.Fatalf("shape = %dx%d", m.NumRows(), m.NumFeatures())
	}
	wantFeatures := []string{"B", "A", "C"}
	for i, f := range wantFeatures {
		if m.Features[i] != f {
			t.Fatalf("features = %v, want %v", m.Features, wantFeatures)
		}
	}
	// P1: B=2, A=1, C=0.
	if m.Rows.Dense()[0][0] != 2 || m.Rows.Dense()[0][1] != 1 || m.Rows.Dense()[0][2] != 0 {
		t.Errorf("P1 row = %v", m.Rows.Dense()[0])
	}
	// P2: B=1, A=1, C=1.
	if m.Rows.Dense()[1][0] != 1 || m.Rows.Dense()[1][1] != 1 || m.Rows.Dense()[1][2] != 1 {
		t.Errorf("P2 row = %v", m.Rows.Dense()[1])
	}
}

func TestBuildBinary(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{Weighting: Binary})
	if m.Rows.Dense()[0][0] != 1 || m.Rows.Dense()[0][2] != 0 {
		t.Errorf("binary row = %v", m.Rows.Dense()[0])
	}
}

func TestBuildLogCount(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{Weighting: LogCount})
	want := math.Log1p(2)
	if math.Abs(m.Rows.Dense()[0][0]-want) > 1e-12 {
		t.Errorf("logcount = %v, want %v", m.Rows.Dense()[0][0], want)
	}
}

func TestBuildTFIDF(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{Weighting: TFIDF})
	// B and A appear for both patients → idf = ln(2/2) = 0.
	if m.Rows.Dense()[0][0] != 0 || m.Rows.Dense()[0][1] != 0 {
		t.Errorf("idf of ubiquitous exams should zero them: %v", m.Rows.Dense()[0])
	}
	// C appears only for P2 → idf = ln 2.
	want := math.Log(2)
	if math.Abs(m.Rows.Dense()[1][2]-want) > 1e-12 {
		t.Errorf("tfidf C = %v, want %v", m.Rows.Dense()[1][2], want)
	}
}

func TestL2Normalization(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{Weighting: Count, Normalization: L2})
	for i, r := range m.Rows.Dense() {
		n := 0.0
		for _, v := range r {
			n += v * v
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-12 {
			t.Errorf("row %d norm = %v, want 1", i, math.Sqrt(n))
		}
	}
}

func TestL1Normalization(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{Weighting: Count, Normalization: L1})
	for i, r := range m.Rows.Dense() {
		s := 0.0
		for _, v := range r {
			s += math.Abs(v)
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("row %d L1 = %v, want 1", i, s)
		}
	}
}

func TestCoverage(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{})
	// Feature order B(3), A(2), C(1); total 6.
	if got := m.CoverageAt(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CoverageAt(1) = %v, want 0.5", got)
	}
	if got := m.CoverageAt(2); math.Abs(got-5.0/6.0) > 1e-12 {
		t.Errorf("CoverageAt(2) = %v, want 5/6", got)
	}
	if got := m.CoverageAt(3); got != 1 {
		t.Errorf("CoverageAt(all) = %v, want 1", got)
	}
	if got := m.CoverageAt(99); got != 1 {
		t.Errorf("CoverageAt(overflow) = %v, want 1", got)
	}
	if got := m.FeaturesForCoverage(0.5); got != 1 {
		t.Errorf("FeaturesForCoverage(0.5) = %d, want 1", got)
	}
	if got := m.FeaturesForCoverage(0.84); got != 3 {
		t.Errorf("FeaturesForCoverage(0.84) = %d, want 3", got)
	}
}

func TestProjectKeepsPatientsReducesFeatures(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{Weighting: Count, Normalization: L2})
	p := m.Project(2)
	if p.NumRows() != m.NumRows() {
		t.Errorf("Project dropped rows: %d vs %d", p.NumRows(), m.NumRows())
	}
	if p.NumFeatures() != 2 {
		t.Errorf("Project features = %d, want 2", p.NumFeatures())
	}
	if !slices.Equal(p.Features, m.Features[:2]) || slices.Contains(p.Features, "C") {
		t.Errorf("Project features = %v, want the first two of %v, without C", p.Features, m.Features)
	}
	// Normalization must be recomputed in the reduced space.
	for i, r := range p.Rows.Dense() {
		n := 0.0
		for _, v := range r {
			n += v * v
		}
		if n > 0 && math.Abs(math.Sqrt(n)-1) > 1e-12 {
			t.Errorf("projected row %d norm = %v, want 1", i, math.Sqrt(n))
		}
	}
}

func TestProjectBounds(t *testing.T) {
	m, _ := Build(vsmLog(t), Options{})
	if p := m.Project(0); p.NumFeatures() != 1 {
		t.Errorf("Project(0) features = %d, want clamp to 1", p.NumFeatures())
	}
	if p := m.Project(99); p.NumFeatures() != m.NumFeatures() {
		t.Errorf("Project(99) features = %d, want clamp to %d", p.NumFeatures(), m.NumFeatures())
	}
	if p := m.Project(m.NumFeatures()); p != m {
		t.Error("Project at full width built a copy, want the matrix itself")
	}
}

func TestBuildErrors(t *testing.T) {
	empty := dataset.NewLog("e")
	if _, err := Build(empty, Options{}); err == nil {
		t.Error("Build accepted log with no patients")
	}
	onlyPatients := dataset.NewLog("p")
	onlyPatients.AddPatient(dataset.Patient{ID: "P1"})
	if _, err := Build(onlyPatients, Options{}); err == nil {
		t.Error("Build accepted log with no exam types")
	}
}

func TestSparsityMatchesSynthetic(t *testing.T) {
	log, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Sparsity()
	if s <= 0.3 || s >= 1 {
		t.Errorf("synthetic VSM sparsity = %v, want clearly sparse (0.3, 1)", s)
	}
}

func TestRowSumsMatchRecordCounts(t *testing.T) {
	log, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(log, Options{Weighting: Count})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range m.Rows.Dense() {
		for _, v := range r {
			total += v
		}
	}
	if int(total) != log.NumRecords() {
		t.Errorf("matrix mass = %v, want %d records", total, log.NumRecords())
	}
}
