package dataset

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Encoded is the dictionary-coded form of a Log: every patient id and
// exam code becomes an integer key, every record a (patient, exam,
// civil day) triple of integers, and the records' grouping into visits
// one integer sort. The characterization, transformation, demand and
// pattern stages read it instead of hashing strings.
//
// Keys below NumPatients are registration rows (a duplicated id maps
// to its last row, as Patient(id) resolves it); a record naming an
// unregistered id gets the next key above, in order of first
// reference, so an Encoded represents any Log the row form can hold.
// Exam keys follow the same rule against NumExams. Check reports
// whether the log is referentially clean.
//
// An Encoded belongs to its Log and is read-only to callers. A regroup
// after new records reuses the visit arrays, so a slice taken from an
// Encoded is valid only until the next write to its log.
type Encoded struct {
	// PatientIDs and ExamCodes name every key: the registration rows in
	// order, then the unregistered ids records reference.
	PatientIDs []string
	ExamCodes  []string
	// NumPatients and NumExams are the registration rows the keys
	// cover.
	NumPatients, NumExams int

	// Patient, Exam and Day are the record columns, in record order.
	// Day is the record's calendar date in its own UTC offset, as days
	// since 1970-01-01: a visit is a date on the wall calendar where
	// the exam took place, not a 24-hour slice of UTC.
	Patient []int32
	Exam    []int32
	Day     []int64

	// Visit v is patient key VisitPatient[v] on day VisitDay[v], with
	// the distinct exam keys VisitExams[VisitPtr[v]:VisitPtr[v+1]] in
	// exam-code order. Visits are ordered by patient registration row,
	// then day; an unregistered patient sorts with row 0, where the
	// string-keyed grouping this replaces put it.
	VisitPatient []int32
	VisitDay     []int64
	VisitPtr     []int32
	VisitExams   []int32
	// DistinctPairs counts the distinct (patient, exam type) pairs the
	// records hold: the non-zero cells of the patient × exam matrix.
	DistinctPairs int

	patientOf map[string]int32
	examOf    map[string]int32
	// dupPatients/dupExams record that a registration row is shadowed
	// by a later row with the same id.
	dupPatients, dupExams bool
	// grouped is the number of records the visit arrays cover, -1
	// before the first grouping.
	grouped int
}

// newEncoded returns the registration dictionaries of l, with no
// record encoded yet.
func newEncoded(l *Log) *Encoded {
	e := &Encoded{
		PatientIDs:  make([]string, len(l.Patients)),
		ExamCodes:   make([]string, len(l.Exams)),
		NumPatients: len(l.Patients),
		NumExams:    len(l.Exams),
		Patient:     make([]int32, 0, len(l.Records)),
		Exam:        make([]int32, 0, len(l.Records)),
		Day:         make([]int64, 0, len(l.Records)),
		patientOf:   make(map[string]int32, len(l.Patients)),
		examOf:      make(map[string]int32, len(l.Exams)),
		grouped:     -1,
	}
	for i, p := range l.Patients {
		e.PatientIDs[i] = p.ID
		e.patientOf[p.ID] = int32(i)
	}
	for i, x := range l.Exams {
		e.ExamCodes[i] = x.Code
		e.examOf[x.Code] = int32(i)
	}
	e.dupPatients = len(e.patientOf) < len(l.Patients)
	e.dupExams = len(e.examOf) < len(l.Exams)
	return e
}

// encodeRecords appends the columns of recs, giving unregistered ids
// new keys.
func (e *Encoded) encodeRecords(recs []Record) {
	e.Patient = slices.Grow(e.Patient, len(recs))
	e.Exam = slices.Grow(e.Exam, len(recs))
	e.Day = slices.Grow(e.Day, len(recs))
	for _, r := range recs {
		p, ok := e.patientOf[r.PatientID]
		if !ok {
			p = int32(len(e.PatientIDs))
			e.PatientIDs = append(e.PatientIDs, r.PatientID)
			e.patientOf[r.PatientID] = p
		}
		x, ok := e.examOf[r.ExamCode]
		if !ok {
			x = int32(len(e.ExamCodes))
			e.ExamCodes = append(e.ExamCodes, r.ExamCode)
			e.examOf[r.ExamCode] = x
		}
		e.Patient = append(e.Patient, p)
		e.Exam = append(e.Exam, x)
		e.Day = append(e.Day, civilDay(r.Date))
	}
}

// civilDay returns t's calendar date in t's own location as days since
// 1970-01-01.
func civilDay(t time.Time) int64 {
	_, off := t.Zone()
	s := t.Unix() + int64(off)
	d := s / 86400
	if s%86400 < 0 {
		d--
	}
	return d
}

// DayTime returns UTC midnight of a civil day (days since 1970-01-01).
func DayTime(day int64) time.Time { return time.Unix(day*86400, 0).UTC() }

// IsPatientKey reports whether key k names a distinct patient id:
// false only for a registration row a later row with the same id
// shadows.
func (e *Encoded) IsPatientKey(k int) bool {
	return k >= e.NumPatients || !e.dupPatients || e.patientOf[e.PatientIDs[k]] == int32(k)
}

// IsExamKey is IsPatientKey for exam keys.
func (e *Encoded) IsExamKey(k int) bool {
	return k >= e.NumExams || !e.dupExams || e.examOf[e.ExamCodes[k]] == int32(k)
}

// NumVisits reports the number of visits.
func (e *Encoded) NumVisits() int { return len(e.VisitPatient) }

// Check reports the log's first referential-integrity violation: a
// duplicate patient id or exam code, or a record naming a patient or
// exam type the log does not register. It returns nil for a clean log.
func (e *Encoded) Check() error {
	for k := 0; e.dupPatients && k < e.NumPatients; k++ {
		if !e.IsPatientKey(k) {
			return fmt.Errorf("dataset: duplicate patient ID %q", e.PatientIDs[k])
		}
	}
	for k := 0; e.dupExams && k < e.NumExams; k++ {
		if !e.IsExamKey(k) {
			return fmt.Errorf("dataset: duplicate exam code %q", e.ExamCodes[k])
		}
	}
	if len(e.PatientIDs) == e.NumPatients && len(e.ExamCodes) == e.NumExams {
		return nil
	}
	for i, p := range e.Patient {
		if int(p) >= e.NumPatients {
			return fmt.Errorf("dataset: record %d references unknown patient %q", i, e.PatientIDs[p])
		}
		if x := e.Exam[i]; int(x) >= e.NumExams {
			return fmt.Errorf("dataset: record %d references unknown exam code %q", i, e.ExamCodes[x])
		}
	}
	return nil
}

// group builds the visit arrays: a counting sort of the records by
// patient key, a stable sort of each patient's records by day, then
// one pass that cuts runs of equal day into visits.
func (e *Encoded) group() {
	n, keys := len(e.Patient), len(e.PatientIDs)
	start := make([]int32, keys+1)
	for _, p := range e.Patient {
		start[p+1]++
	}
	for k := 0; k < keys; k++ {
		start[k+1] += start[k]
	}
	order := make([]int32, n)
	next := slices.Clone(start[:keys])
	for i, p := range e.Patient {
		order[next[p]] = int32(i)
		next[p]++
	}
	byDay := func(a, b int32) int { return cmp.Compare(e.Day[a], e.Day[b]) }
	visits := 0
	for k := 0; k < keys; k++ {
		g := order[start[k]:start[k+1]]
		if len(g) > 1 {
			slices.SortStableFunc(g, byDay)
		}
		for i := range g {
			if i == 0 || e.Day[g[i]] != e.Day[g[i-1]] {
				visits++
			}
		}
	}

	// rank orders exam keys by code, the order of a visit's exams.
	rank := make([]int32, len(e.ExamCodes))
	byCode := make([]int32, len(e.ExamCodes))
	for i := range byCode {
		byCode[i] = int32(i)
	}
	slices.SortStableFunc(byCode, func(a, b int32) int { return strings.Compare(e.ExamCodes[a], e.ExamCodes[b]) })
	for r, x := range byCode {
		rank[x] = int32(r)
	}

	e.VisitPatient = slices.Grow(e.VisitPatient[:0], visits)
	e.VisitDay = slices.Grow(e.VisitDay[:0], visits)
	e.VisitPtr = append(slices.Grow(e.VisitPtr[:0], visits+1), 0)
	e.VisitExams = slices.Grow(e.VisitExams[:0], n)
	e.DistinctPairs = 0
	// pairStamp[x] is 1 + the last patient key seen with exam x;
	// visitStamp[x] is 1 + the last visit holding it.
	pairStamp := make([]int32, len(e.ExamCodes))
	visitStamp := make([]int32, len(e.ExamCodes))
	for k := 0; k < keys; k++ {
		g := order[start[k]:start[k+1]]
		for i := 0; i < len(g); {
			v, day, lo := int32(len(e.VisitPatient)+1), e.Day[g[i]], len(e.VisitExams)
			for ; i < len(g) && e.Day[g[i]] == day; i++ {
				x := e.Exam[g[i]]
				if pairStamp[x] != int32(k+1) {
					pairStamp[x] = int32(k + 1)
					e.DistinctPairs++
				}
				if visitStamp[x] != v {
					visitStamp[x] = v
					e.VisitExams = append(e.VisitExams, x)
				}
			}
			slices.SortFunc(e.VisitExams[lo:], func(a, b int32) int { return cmp.Compare(rank[a], rank[b]) })
			e.VisitPatient = append(e.VisitPatient, int32(k))
			e.VisitDay = append(e.VisitDay, day)
			e.VisitPtr = append(e.VisitPtr, int32(len(e.VisitExams)))
		}
	}
	if keys > e.NumPatients {
		e.placeUnregistered()
	}
	e.grouped = n
}

// placeUnregistered moves the visits of unregistered patients, which
// the counting sort put last, to where registration order puts them:
// with row 0, by day.
func (e *Encoded) placeUnregistered() {
	row := func(v int32) int32 {
		if p := e.VisitPatient[v]; int(p) < e.NumPatients {
			return p
		}
		return 0
	}
	perm := make([]int32, e.NumVisits())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(row(a), row(b)); c != 0 {
			return c
		}
		return cmp.Compare(e.VisitDay[a], e.VisitDay[b])
	})
	patient := make([]int32, len(perm))
	day := make([]int64, len(perm))
	ptr := make([]int32, 1, len(perm)+1)
	exams := make([]int32, 0, len(e.VisitExams))
	for i, v := range perm {
		patient[i], day[i] = e.VisitPatient[v], e.VisitDay[v]
		exams = append(exams, e.VisitExams[e.VisitPtr[v]:e.VisitPtr[v+1]]...)
		ptr = append(ptr, int32(len(exams)))
	}
	e.VisitPatient, e.VisitDay, e.VisitPtr, e.VisitExams = patient, day, ptr, exams
}
