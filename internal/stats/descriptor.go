package stats

import (
	"sort"

	"adahealth/internal/dataset"
)

// Descriptor is the statistical characterization of an examination log
// that ADA-HEALTH stores in the K-DB (collection 3 of the paper's data
// model) and feeds to the end-goal feasibility rules.
type Descriptor struct {
	DatasetName  string `json:"dataset_name"`
	NumPatients  int    `json:"num_patients"`
	NumRecords   int    `json:"num_records"`
	NumExamTypes int    `json:"num_exam_types"`
	NumVisits    int    `json:"num_visits"`

	// RecordsPerPatient summarizes how many exams each patient took.
	RecordsPerPatient Summary `json:"records_per_patient"`
	// ExamsPerVisit summarizes the visit (transaction) sizes.
	ExamsPerVisit Summary `json:"exams_per_visit"`
	// Age summarizes the patient age distribution.
	Age Summary `json:"age"`

	// Frequency skew of the exam-type distribution.
	FrequencyEntropy     float64 `json:"frequency_entropy"`      // bits
	FrequencyEntropyNorm float64 `json:"frequency_entropy_norm"` // / log2(#types)
	FrequencyGini        float64 `json:"frequency_gini"`
	// Top20Coverage / Top40Coverage: fraction of records covered by the
	// top 20% / 40% most frequent exam types — the quantities the
	// paper's horizontal partial mining pivots on (≈0.70 / ≈0.85).
	Top20Coverage float64 `json:"top20_coverage"`
	Top40Coverage float64 `json:"top40_coverage"`

	// VSMSparsity is the fraction of zero cells in the patient ×
	// exam-type count matrix ("inherently sparse distribution").
	VSMSparsity float64 `json:"vsm_sparsity"`

	// SpanDays is the length of the observation window in days
	// (inclusive of both endpoints; 0 for an empty log).
	SpanDays int `json:"span_days"`

	// HasOutcomeLabels records whether the dataset carries treatment
	// outcome labels. Examination logs do not; the flag exists so the
	// end-goal feasibility rules can gate supervised goals.
	HasOutcomeLabels bool `json:"has_outcome_labels"`
}

// Characterize computes the full Descriptor of a log. The VSM sparsity
// is computed from the count matrix implied by the log without
// materializing it densely.
func Characterize(l *dataset.Log) Descriptor {
	d := Descriptor{
		DatasetName:  l.Name,
		NumPatients:  l.NumPatients(),
		NumRecords:   l.NumRecords(),
		NumExamTypes: l.NumExamTypes(),
	}

	// Per-key counts over the log's encoding. The values are sorted
	// before any floating-point accumulation, so the summaries do not
	// depend on key order.
	enc := l.Encoded()
	perPatient := make([]int, len(enc.PatientIDs))
	for _, p := range enc.Patient {
		perPatient[p]++
	}
	rp := make([]float64, 0, len(perPatient))
	for k, c := range perPatient {
		if enc.IsPatientKey(k) {
			rp = append(rp, float64(c))
		}
	}
	sort.Float64s(rp)
	d.RecordsPerPatient = Summarize(rp)

	d.NumVisits = enc.NumVisits()
	vs := make([]float64, d.NumVisits)
	for v := range vs {
		vs[v] = float64(enc.VisitPtr[v+1] - enc.VisitPtr[v])
	}
	d.ExamsPerVisit = Summarize(vs)

	ages := make([]float64, len(l.Patients))
	for i, p := range l.Patients {
		ages[i] = float64(p.Age)
	}
	d.Age = Summarize(ages)

	perExam := make([]int, len(enc.ExamCodes))
	for _, x := range enc.Exam {
		perExam[x]++
	}
	counts := make([]int, 0, len(perExam))
	for k, c := range perExam {
		if enc.IsExamKey(k) {
			counts = append(counts, c)
		}
	}
	sort.Ints(counts)
	d.FrequencyEntropy = Entropy(counts)
	d.FrequencyEntropyNorm = NormalizedEntropy(counts)
	d.FrequencyGini = Gini(counts)
	d.Top20Coverage = TopShareByCount(counts, (len(counts)+4)/5)
	d.Top40Coverage = TopShareByCount(counts, (2*len(counts)+4)/5)

	// Sparsity of the patient × exam count matrix: non-zero cells are
	// the distinct (patient, exam) pairs.
	cells := l.NumPatients() * l.NumExamTypes()
	if cells > 0 {
		d.VSMSparsity = 1 - float64(enc.DistinctPairs)/float64(cells)
	}

	if min, max, ok := l.TimeSpan(); ok {
		d.SpanDays = int(max.Sub(min).Hours()/24) + 1
	}
	return d
}
