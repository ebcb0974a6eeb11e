package dataset

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func day(d int) time.Time {
	return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
}

func sampleLog(t *testing.T) *Log {
	t.Helper()
	l := NewLog("sample")
	for _, e := range []ExamType{
		{Code: "EX001", Name: "HbA1c", Category: "routine"},
		{Code: "EX002", Name: "ECG", Category: "cardiovascular"},
		{Code: "EX003", Name: "FundusExam", Category: "ophthalmic"},
	} {
		if err := l.AddExam(e); err != nil {
			t.Fatalf("AddExam(%v): %v", e, err)
		}
	}
	for _, p := range []Patient{
		{ID: "P1", Age: 60}, {ID: "P2", Age: 45}, {ID: "P3", Age: 71},
	} {
		if err := l.AddPatient(p); err != nil {
			t.Fatalf("AddPatient(%v): %v", p, err)
		}
	}
	recs := []Record{
		{"P1", "EX001", day(0)},
		{"P1", "EX002", day(0)},
		{"P1", "EX001", day(30)},
		{"P2", "EX001", day(5)},
		{"P2", "EX003", day(5)},
		{"P3", "EX002", day(9)},
	}
	for _, r := range recs {
		if err := l.AddRecord(r); err != nil {
			t.Fatalf("AddRecord(%v): %v", r, err)
		}
	}
	return l
}

func TestAddDuplicates(t *testing.T) {
	l := sampleLog(t)
	if err := l.AddExam(ExamType{Code: "EX001"}); err == nil {
		t.Error("duplicate exam code accepted")
	}
	if err := l.AddPatient(Patient{ID: "P1"}); err == nil {
		t.Error("duplicate patient ID accepted")
	}
}

func TestAddRecordReferentialIntegrity(t *testing.T) {
	l := sampleLog(t)
	if err := l.AddRecord(Record{"P9", "EX001", day(1)}); err == nil {
		t.Error("record with unknown patient accepted")
	}
	if err := l.AddRecord(Record{"P1", "EX999", day(1)}); err == nil {
		t.Error("record with unknown exam accepted")
	}
}

func TestCounts(t *testing.T) {
	l := sampleLog(t)
	if got := l.NumPatients(); got != 3 {
		t.Errorf("NumPatients = %d, want 3", got)
	}
	if got := l.NumExamTypes(); got != 3 {
		t.Errorf("NumExamTypes = %d, want 3", got)
	}
	if got := l.NumRecords(); got != 6 {
		t.Errorf("NumRecords = %d, want 6", got)
	}
}

func TestExamFrequencies(t *testing.T) {
	l := sampleLog(t)
	freq := l.ExamFrequencies()
	want := map[string]int{"EX001": 3, "EX002": 2, "EX003": 1}
	for code, w := range want {
		if freq[code] != w {
			t.Errorf("freq[%s] = %d, want %d", code, freq[code], w)
		}
	}
}

func TestExamsByFrequencyOrder(t *testing.T) {
	l := sampleLog(t)
	got := ReferenceExamsByFrequency(l)
	want := []string{"EX001", "EX002", "EX003"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExamsByFrequency = %v, want %v", got, want)
		}
	}
}

func TestExamsByFrequencyTieBreak(t *testing.T) {
	l := NewLog("ties")
	l.AddExam(ExamType{Code: "B"})
	l.AddExam(ExamType{Code: "A"})
	l.AddPatient(Patient{ID: "P1"})
	l.AddRecord(Record{"P1", "A", day(0)})
	l.AddRecord(Record{"P1", "B", day(1)})
	got := ReferenceExamsByFrequency(l)
	if got[0] != "A" || got[1] != "B" {
		t.Errorf("tie-break not lexicographic: %v", got)
	}
}

func TestRecordsPerPatientIncludesZero(t *testing.T) {
	l := sampleLog(t)
	l.AddPatient(Patient{ID: "P4", Age: 50})
	counts := ReferenceRecordsPerPatient(l)
	if c, ok := counts["P4"]; !ok || c != 0 {
		t.Errorf("P4 count = %d,%v; want 0,true", c, ok)
	}
	if counts["P1"] != 3 {
		t.Errorf("P1 count = %d, want 3", counts["P1"])
	}
}

func TestTimeSpan(t *testing.T) {
	l := sampleLog(t)
	min, max, ok := l.TimeSpan()
	if !ok {
		t.Fatal("TimeSpan not ok on non-empty log")
	}
	if !min.Equal(day(0)) || !max.Equal(day(30)) {
		t.Errorf("TimeSpan = [%v, %v], want [%v, %v]", min, max, day(0), day(30))
	}
	empty := NewLog("e")
	if _, _, ok := empty.TimeSpan(); ok {
		t.Error("TimeSpan ok on empty log")
	}
}

func TestVisitsGrouping(t *testing.T) {
	l := sampleLog(t)
	visits := l.Visits()
	// P1 has two visits (day 0, day 30), P2 one, P3 one.
	if len(visits) != 4 {
		t.Fatalf("got %d visits, want 4", len(visits))
	}
	v0 := visits[0]
	if v0.PatientID != "P1" || len(v0.ExamCodes) != 2 {
		t.Errorf("first visit = %+v, want P1 with 2 exams", v0)
	}
	if v0.ExamCodes[0] != "EX001" || v0.ExamCodes[1] != "EX002" {
		t.Errorf("visit exams not sorted: %v", v0.ExamCodes)
	}
}

func TestVisitsDeduplicateSameDay(t *testing.T) {
	l := sampleLog(t)
	// Same exam twice on the same day collapses to once in the visit.
	l.AddRecord(Record{"P3", "EX002", day(9)})
	for _, v := range l.Visits() {
		if v.PatientID == "P3" && len(v.ExamCodes) != 1 {
			t.Errorf("P3 visit exams = %v, want 1 deduplicated code", v.ExamCodes)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := sampleLog(t)
	var eb, pb, rb bytes.Buffer
	if err := l.WriteCSV(&eb, &pb, &rb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV("sample", &eb, &pb, &rb)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.NumPatients() != l.NumPatients() ||
		got.NumExamTypes() != l.NumExamTypes() ||
		got.NumRecords() != l.NumRecords() {
		t.Errorf("round trip mismatch: got %d/%d/%d want %d/%d/%d",
			got.NumPatients(), got.NumExamTypes(), got.NumRecords(),
			l.NumPatients(), l.NumExamTypes(), l.NumRecords())
	}
	if p, ok := got.Patient("P3"); !ok || p.Age != 71 {
		t.Errorf("patient P3 after round trip = %+v, %v", p, ok)
	}
}

func TestCSVFilesRoundTrip(t *testing.T) {
	l := sampleLog(t)
	dir := t.TempDir()
	if err := l.SaveCSVFiles(dir); err != nil {
		t.Fatalf("SaveCSVFiles: %v", err)
	}
	got, err := LoadCSVFiles("sample", dir)
	if err != nil {
		t.Fatalf("LoadCSVFiles: %v", err)
	}
	if got.NumRecords() != l.NumRecords() {
		t.Errorf("records = %d, want %d", got.NumRecords(), l.NumRecords())
	}
}

func TestReadCSVMalformed(t *testing.T) {
	exams := "code,name,category\nEX001,HbA1c,routine\n"
	patients := "id,age,profile\nP1,notanumber,\n"
	records := "patient_id,exam_code,date\n"
	_, err := ReadCSV("x", strings.NewReader(exams), strings.NewReader(patients), strings.NewReader(records))
	if err == nil {
		t.Fatal("malformed age accepted")
	}

	patients = "id,age,profile\nP1,44,\n"
	records = "patient_id,exam_code,date\nP1,EX001,not-a-date\n"
	_, err = ReadCSV("x", strings.NewReader(exams), strings.NewReader(patients), strings.NewReader(records))
	if err == nil {
		t.Fatal("malformed date accepted")
	}

	_, err = ReadCSV("x", strings.NewReader(""), strings.NewReader(""), strings.NewReader(""))
	if err == nil {
		t.Fatal("empty CSV accepted")
	}
}

// ReferenceExamsByFrequency returns exam codes ordered by decreasing
// record count, ties broken by code: the column order vsm.Build used
// before it read Encoded, kept as the equivalence tests' reference.
func ReferenceExamsByFrequency(l *Log) []string {
	freq := l.ExamFrequencies()
	codes := make([]string, 0, len(freq))
	for c := range freq {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool {
		if freq[codes[i]] != freq[codes[j]] {
			return freq[codes[i]] > freq[codes[j]]
		}
		return codes[i] < codes[j]
	})
	return codes
}

// ReferenceRecordsPerPatient returns the number of records for every
// patient ID, patients with zero records included: the counts
// stats.Characterize summarized before it read Encoded.
func ReferenceRecordsPerPatient(l *Log) map[string]int {
	counts := make(map[string]int, len(l.Patients))
	for _, p := range l.Patients {
		counts[p.ID] = 0
	}
	for _, r := range l.Records {
		counts[r.PatientID]++
	}
	return counts
}

// ReferenceVisits is the string-keyed grouping Log.Visits was before
// it became a projection of Encoded, kept as the equivalence tests'
// reference: a visit is a record's date formatted in the record's own
// location, and visits sort by the patient's registration row (the
// last row of a repeated id; 0 for an unregistered one, as the map
// miss gave), then date — in no defined order among ties.
func ReferenceVisits(l *Log) []Visit {
	type key struct {
		patient string
		day     string
	}
	byKey := make(map[key]map[string]bool)
	for _, r := range l.Records {
		k := key{r.PatientID, r.Date.Format("2006-01-02")}
		set := byKey[k]
		if set == nil {
			set = make(map[string]bool)
			byKey[k] = set
		}
		set[r.ExamCode] = true
	}
	patientIndex := make(map[string]int, len(l.Patients))
	for i, p := range l.Patients {
		patientIndex[p.ID] = i
	}
	visits := make([]Visit, 0, len(byKey))
	for k, set := range byKey {
		codes := make([]string, 0, len(set))
		for c := range set {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		d, _ := time.Parse("2006-01-02", k.day)
		visits = append(visits, Visit{PatientID: k.patient, Date: d, ExamCodes: codes})
	}
	sort.Slice(visits, func(i, j int) bool {
		pi, pj := patientIndex[visits[i].PatientID], patientIndex[visits[j].PatientID]
		if pi != pj {
			return pi < pj
		}
		return visits[i].Date.Before(visits[j].Date)
	})
	return visits
}

// TestEncodedFollowsRows: the encoding keeps up with rows added
// through the Add methods and with rows appended to the exported
// fields directly, and ReindexAfterLoad picks up rows rewritten in
// place. After every step the whole encoding, visit arrays and
// DistinctPairs included, equals a fresh log's over the same rows, so
// a regroup that reuses the visit arrays cannot leave stale data.
func TestEncodedFollowsRows(t *testing.T) {
	l := sampleLog(t)
	check := func(what string) {
		t.Helper()
		if got, want := l.Visits(), ReferenceVisits(l); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: visits\n got %+v\nwant %+v", what, got, want)
		}
		fresh := &Log{
			Name:     l.Name,
			Exams:    slices.Clone(l.Exams),
			Patients: slices.Clone(l.Patients),
			Records:  slices.Clone(l.Records),
		}
		if got, want := l.Encoded(), fresh.Encoded(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: encoding\n got %+v\nwant %+v", what, got, want)
		}
	}
	check("built")
	if err := l.AddPatient(Patient{ID: "P4"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddExam(ExamType{Code: "EX000"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddRecord(Record{"P4", "EX000", day(2)}); err != nil {
		t.Fatal(err)
	}
	check("after Add")
	l.Records = append(l.Records, Record{"P2", "EX002", day(5).Add(20 * time.Hour)})
	check("after a direct append")
	l.Records[0].PatientID = "P3"
	l.ReindexAfterLoad()
	check("after an in-place rewrite")
	if err := l.Encoded().Check(); err != nil {
		t.Fatalf("clean log: %v", err)
	}
}

// TestCheck: Check names the first duplicate or dangling reference and
// passes a clean log.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(l *Log)
		want string
	}{
		{"clean", func(*Log) {}, ""},
		{"duplicate patient", func(l *Log) { l.Patients = append(l.Patients, Patient{ID: "P2"}) }, `duplicate patient ID "P2"`},
		{"duplicate exam", func(l *Log) { l.Exams = append(l.Exams, ExamType{Code: "EX003"}) }, `duplicate exam code "EX003"`},
		{"unknown patient", func(l *Log) { l.Records = append(l.Records, Record{"P9", "EX001", day(1)}) }, `record 6 references unknown patient "P9"`},
		{"unknown exam", func(l *Log) { l.Records = append(l.Records, Record{"P1", "EX9", day(1)}) }, `record 6 references unknown exam code "EX9"`},
	} {
		l := sampleLog(t)
		tc.edit(l)
		err := l.Encoded().Check()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
