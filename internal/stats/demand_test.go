package stats

import (
	"testing"
	"time"

	"adahealth/internal/dataset"
)

func demandLog(t *testing.T) *dataset.Log {
	t.Helper()
	l := dataset.NewLog("demand")
	if err := l.AddExam(dataset.ExamType{Code: "A", Category: "cardio"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddExam(dataset.ExamType{Code: "B", Category: "renal"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddPatient(dataset.Patient{ID: "P1", Age: 60}); err != nil {
		t.Fatal(err)
	}
	at := func(m, d int) time.Time {
		return time.Date(2015, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	}
	recs := []dataset.Record{
		{PatientID: "P1", ExamCode: "A", Date: at(1, 5)},
		{PatientID: "P1", ExamCode: "A", Date: at(1, 20)},
		{PatientID: "P1", ExamCode: "B", Date: at(1, 25)},
		// February empty.
		{PatientID: "P1", ExamCode: "A", Date: at(3, 2)},
	}
	for _, r := range recs {
		if err := l.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestMonthlyDemand(t *testing.T) {
	series := MonthlyDemand(demandLog(t))
	if len(series) != 3 {
		t.Fatalf("months = %d, want 3 (Jan-Mar incl. empty Feb)", len(series))
	}
	if series[0].Count != 3 || series[0].Month != 1 {
		t.Errorf("January = %+v", series[0])
	}
	if series[1].Count != 0 || series[1].Month != 2 {
		t.Errorf("February = %+v, want gap month with 0", series[1])
	}
	if series[2].Count != 1 {
		t.Errorf("March = %+v", series[2])
	}
}

func TestMonthlyDemandEmptyLog(t *testing.T) {
	if got := MonthlyDemand(dataset.NewLog("e")); got != nil {
		t.Errorf("empty log demand = %v", got)
	}
}
