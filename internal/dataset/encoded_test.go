package dataset

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

// byteSource turns fuzz bytes into small choices; past the end every
// choice is 0.
type byteSource []byte

func (s *byteSource) intn(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// fuzzZones are offsets whose civil date differs from UTC's near
// midnight, some not whole hours.
var fuzzZones = []*time.Location{
	time.UTC,
	time.FixedZone("", 2*3600),
	time.FixedZone("", -5*3600),
	time.FixedZone("", 5*3600+1800),
	time.FixedZone("", 14*3600),
	time.FixedZone("", -11*3600),
	time.FixedZone("", -9*3600-1800),
}

// scheduleBatch is one append: registrations, then records, which go
// through AddRecord or straight onto the exported slice.
type scheduleBatch struct {
	exams    []ExamType
	patients []Patient
	records  []Record
	direct   bool
}

// decodeSchedule reads a small clean log and an append schedule from
// data. Records pick any registered patient, so most return to one
// with visits; a record may land on the date of one of its patient's
// earlier records (the same instant, or the same wall date in another
// offset); times sit near midnight in offsets from −11:00 to +14:00;
// and a new exam code is drawn from a pool, so it may sort before the
// registered ones.
func decodeSchedule(data []byte) (*Log, []scheduleBatch) {
	src := byteSource(data)
	l := NewLog("fuzz")
	examCodes := map[string]bool{}
	patientIDs := map[string]bool{}
	var exams []string
	var patients []string
	byPatient := map[string][]time.Time{}

	newExams := func(n int) []ExamType {
		var out []ExamType
		for ; n > 0; n-- {
			code := fmt.Sprintf("E%02d", src.intn(40))
			if !examCodes[code] {
				examCodes[code] = true
				exams = append(exams, code)
				out = append(out, ExamType{Code: code, Category: "c"})
			}
		}
		return out
	}
	newPatients := func(n int) []Patient {
		var out []Patient
		for ; n > 0; n-- {
			id := fmt.Sprintf("P%02d", src.intn(60))
			if !patientIDs[id] {
				patientIDs[id] = true
				patients = append(patients, id)
				out = append(out, Patient{ID: id, Age: src.intn(90)})
			}
		}
		return out
	}
	newRecords := func(n int) []Record {
		var out []Record
		for ; n > 0 && len(exams) > 0 && len(patients) > 0; n-- {
			r := Record{PatientID: patients[src.intn(len(patients))], ExamCode: exams[src.intn(len(exams))]}
			zone := fuzzZones[src.intn(len(fuzzZones))]
			earlier := byPatient[r.PatientID]
			switch mode := src.intn(4); {
			case mode == 1 && len(earlier) > 0:
				r.Date = earlier[src.intn(len(earlier))]
			case mode == 2 && len(earlier) > 0:
				y, m, d := earlier[src.intn(len(earlier))].Date()
				r.Date = time.Date(y, m, d, src.intn(24), src.intn(60), 0, 0, zone)
			default:
				hour := []int{23, 0, 22, 1, 12}[src.intn(5)]
				r.Date = time.Date(2015, 1, 1+src.intn(12), hour, src.intn(60), 0, 0, zone)
			}
			byPatient[r.PatientID] = append(byPatient[r.PatientID], r.Date)
			out = append(out, r)
		}
		return out
	}

	l.Exams = newExams(1 + src.intn(4))
	l.Patients = newPatients(1 + src.intn(5))
	l.Records = newRecords(src.intn(20))
	var batches []scheduleBatch
	for n := 1 + src.intn(8); n > 0; n-- {
		b := scheduleBatch{exams: newExams(src.intn(3)), patients: newPatients(src.intn(3))}
		b.records = newRecords(src.intn(7))
		b.direct = len(b.exams) == 0 && len(b.patients) == 0 && src.intn(3) == 0
		batches = append(batches, b)
	}
	return l, batches
}

// scanTimeSpan is TimeSpan as it was before the encoding tracked the
// span: one pass over the records.
func scanTimeSpan(l *Log) (min, max time.Time, ok bool) {
	if len(l.Records) == 0 {
		return time.Time{}, time.Time{}, false
	}
	min, max = l.Records[0].Date, l.Records[0].Date
	for _, r := range l.Records[1:] {
		if r.Date.Before(min) {
			min = r.Date
		}
		if r.Date.After(max) {
			max = r.Date
		}
	}
	return min, max, true
}

// FuzzEncodedAppendMatchesFresh: a log's encoding, brought up to date
// after every appended batch, equals field for field (cached rank table
// and span included) the encoding of a fresh Log over the same rows,
// and TimeSpan equals a scan of the records.
func FuzzEncodedAppendMatchesFresh(f *testing.F) {
	f.Add([]byte{3, 4, 10, 20, 30, 40, 5, 1, 2, 3, 4, 5, 15})
	f.Add([]byte("returning patients on their own visit days, with new exam codes before the old"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, batches := decodeSchedule(data)
		check := func(what string) {
			t.Helper()
			fresh := &Log{
				Name:     l.Name,
				Exams:    slices.Clone(l.Exams),
				Patients: slices.Clone(l.Patients),
				Records:  slices.Clone(l.Records),
			}
			if got, want := l.Encoded(), fresh.Encoded(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: encoding\n got %+v\nwant %+v", what, got, want)
			}
			min, max, ok := l.TimeSpan()
			wmin, wmax, wok := scanTimeSpan(l)
			if min != wmin || max != wmax || ok != wok {
				t.Fatalf("%s: TimeSpan = %v, %v, %v; the scan gives %v, %v, %v", what, min, max, ok, wmin, wmax, wok)
			}
		}
		check("initial log")
		for i, b := range batches {
			for _, e := range b.exams {
				if err := l.AddExam(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range b.patients {
				if err := l.AddPatient(p); err != nil {
					t.Fatal(err)
				}
			}
			if b.direct {
				l.Records = append(l.Records, b.records...)
			} else {
				for _, r := range b.records {
					if err := l.AddRecord(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			check(fmt.Sprintf("batch %d", i))
		}
	})
}
