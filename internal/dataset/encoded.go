package dataset

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Encoded is the dictionary-coded form of a Log: every patient id and
// exam code becomes an integer key, every record a (patient, exam,
// civil day) triple of integers, and the records' grouping into visits
// a counting sort by patient key. The characterization,
// transformation, demand and pattern stages read it instead of
// hashing strings.
//
// Keys below NumPatients are registration rows (a duplicated id maps
// to its last row, as Patient(id) resolves it); a record naming an
// unregistered id gets the next key above, in order of first
// reference, so an Encoded represents any Log the row form can hold.
// Exam keys follow the same rule against NumExams. Check reports
// whether the log is referentially clean.
//
// The encoding follows appended rows at the cost of what they add:
// new records are encoded and grouped on their own, and only the
// patients they touch have their visits merged (group). An Encoded
// belongs to its Log and is read-only to callers. A regroup after new
// records rewrites the visit arrays in place, so a slice taken from an
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
	// rank orders exam keys by code, the order of a visit's exams. It
	// is rebuilt when a new code arrives.
	rank []int32
	// first and last are the earliest and latest record dates, the
	// first record holding each when several share the instant: what
	// Log.TimeSpan returns.
	first, last time.Time
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
// new keys, and widens the time span to cover them.
func (e *Encoded) encodeRecords(recs []Record) {
	e.Patient = slices.Grow(e.Patient, len(recs))
	e.Exam = slices.Grow(e.Exam, len(recs))
	e.Day = slices.Grow(e.Day, len(recs))
	for _, r := range recs {
		if len(e.Day) == 0 || r.Date.Before(e.first) {
			e.first = r.Date
		}
		if len(e.Day) == 0 || r.Date.After(e.last) {
			e.last = r.Date
		}
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

// group brings the visit arrays up to date with the records encoded
// since the last grouping, regrouping only the patients those records
// touch. It cuts the new records into visits after the existing ones
// (a counting sort by patient key over the keys they span, then a sort
// of each patient's records by day) and counts the (patient, exam)
// pairs they add. When the new visits do not all sort after the last
// existing one, splice merges them in. A first grouping is the same
// routine with every patient touched; so is any grouping of a log
// that holds unregistered patient ids, which placeUnregistered then
// moves to where registration order puts them.
func (e *Encoded) group() {
	if len(e.rank) != len(e.ExamCodes) {
		e.rankExams()
	}
	from := e.grouped
	if from < 0 || len(e.PatientIDs) > e.NumPatients {
		from = 0
		e.VisitPatient, e.VisitDay, e.VisitExams = e.VisitPatient[:0], e.VisitDay[:0], e.VisitExams[:0]
		e.VisitPtr = append(e.VisitPtr[:0], 0)
		e.DistinctPairs = 0
	}
	if from < len(e.Patient) {
		e.groupFrom(from)
	}
	if len(e.PatientIDs) > e.NumPatients {
		e.placeUnregistered()
	}
	e.grouped = len(e.Patient)
}

// rankExams orders exam keys by code, the order of a visit's exams.
func (e *Encoded) rankExams() {
	byCode := make([]int32, len(e.ExamCodes))
	for i := range byCode {
		byCode[i] = int32(i)
	}
	slices.SortStableFunc(byCode, func(a, b int32) int { return strings.Compare(e.ExamCodes[a], e.ExamCodes[b]) })
	e.rank = make([]int32, len(e.ExamCodes))
	for r, x := range byCode {
		e.rank[x] = int32(r)
	}
}

// groupFrom groups records [from:] into visits appended after the
// existing ones, then splices them in unless they already sort last.
func (e *Encoded) groupFrom(from int) {
	recs := e.Patient[from:]
	lo, hi := recs[0], recs[0]
	for _, p := range recs {
		lo, hi = min(lo, p), max(hi, p)
	}
	span := int(hi-lo) + 1
	start := make([]int32, span+1)
	for _, p := range recs {
		start[p-lo+1]++
	}
	for k := 0; k < span; k++ {
		start[k+1] += start[k]
	}
	order := make([]int32, len(recs))
	next := slices.Clone(start[:span])
	for i, p := range recs {
		order[next[p-lo]] = int32(from + i)
		next[p-lo]++
	}
	byDay := func(a, b int32) int { return cmp.Compare(e.Day[a], e.Day[b]) }
	visits := 0
	for k := 0; k < span; k++ {
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

	old, oldExams := e.NumVisits(), len(e.VisitExams)
	e.VisitPatient = slices.Grow(e.VisitPatient, visits)
	e.VisitDay = slices.Grow(e.VisitDay, visits)
	e.VisitPtr = slices.Grow(e.VisitPtr, visits)
	e.VisitExams = slices.Grow(e.VisitExams, len(recs))
	// pairStamp[x] is 1 + the last patient key seen with exam x, its
	// existing visits included; visitStamp[x] is 1 + the last visit
	// holding it.
	pairStamp := make([]int32, len(e.ExamCodes))
	visitStamp := make([]int32, len(e.ExamCodes))
	for k := 0; k < span; k++ {
		g := order[start[k]:start[k+1]]
		if len(g) == 0 {
			continue
		}
		p := lo + int32(k)
		stamp := p + 1
		for v, _ := slices.BinarySearch(e.VisitPatient[:old], p); v < old && e.VisitPatient[v] == p; v++ {
			for _, x := range e.VisitExams[e.VisitPtr[v]:e.VisitPtr[v+1]] {
				pairStamp[x] = stamp
			}
		}
		for i := 0; i < len(g); {
			v, day, first := int32(len(e.VisitPatient)+1), e.Day[g[i]], len(e.VisitExams)
			for ; i < len(g) && e.Day[g[i]] == day; i++ {
				x := e.Exam[g[i]]
				if pairStamp[x] != stamp {
					pairStamp[x] = stamp
					e.DistinctPairs++
				}
				if visitStamp[x] != v {
					visitStamp[x] = v
					e.VisitExams = append(e.VisitExams, x)
				}
			}
			slices.SortFunc(e.VisitExams[first:], func(a, b int32) int { return cmp.Compare(e.rank[a], e.rank[b]) })
			e.VisitPatient = append(e.VisitPatient, p)
			e.VisitDay = append(e.VisitDay, day)
			e.VisitPtr = append(e.VisitPtr, int32(len(e.VisitExams)))
		}
	}
	if old > 0 && !e.visitBefore(old-1, e.VisitPatient[old], e.VisitDay[old]) {
		e.splice(old, oldExams)
	}
}

// visitBefore reports whether visit v sorts before patient p's visit
// on day.
func (e *Encoded) visitBefore(v int, p int32, day int64) bool {
	return e.VisitPatient[v] < p || e.VisitPatient[v] == p && e.VisitDay[v] < day
}

// splice merges the visits after the first old ones, which groupFrom
// just cut from new records, into the old visits: a new visit on the
// day of one of its patient's existing visits adds its exams to that
// visit, and any other is inserted at its place. It works from the
// back, in place, moving each old visit after the first insertion
// once; the old visits before it stay where they are.
func (e *Encoded) splice(old, oldExams int) {
	newPatient := slices.Clone(e.VisitPatient[old:])
	newDay := slices.Clone(e.VisitDay[old:])
	newPtr := slices.Clone(e.VisitPtr[old:])
	newExams := slices.Clone(e.VisitExams[oldExams:])
	for i := range newPtr {
		newPtr[i] -= int32(oldExams)
	}
	oldExamsOf := func(v int) []int32 { return e.VisitExams[e.VisitPtr[v]:e.VisitPtr[v+1]] }
	newExamsOf := func(j int) []int32 { return newExams[newPtr[j]:newPtr[j+1]] }

	// at[j] is the first old visit not before new visit j; the two
	// merge when that visit is on the same patient and day.
	at := make([]int, len(newPatient))
	merges := func(j int) bool {
		return at[j] < old && e.VisitPatient[at[j]] == newPatient[j] && e.VisitDay[at[j]] == newDay[j]
	}
	visits, exams := old, oldExams
	for j := range newPatient {
		at[j] = sort.Search(old, func(v int) bool { return !e.visitBefore(v, newPatient[j], newDay[j]) })
		added := newExamsOf(j)
		if merges(j) {
			n := 0
			for _, x := range added {
				if !slices.Contains(oldExamsOf(at[j]), x) {
					n++
				}
			}
			exams += n
		} else {
			visits++
			exams += len(added)
		}
	}
	// The merged arrays are no longer than old and new side by side.
	e.VisitPatient = e.VisitPatient[:visits]
	e.VisitDay = e.VisitDay[:visits]
	e.VisitPtr = e.VisitPtr[:visits+1]
	e.VisitExams = e.VisitExams[:exams]

	// w is the slot the next visit down goes to, x the end of its exams.
	w, x := visits-1, exams
	place := func(p int32, day int64, end int) {
		e.VisitPatient[w], e.VisitDay[w] = p, day
		e.VisitPtr[w+1] = int32(end)
		w--
	}
	v := old - 1
	for j := len(newPatient) - 1; j >= 0; j-- {
		stop := at[j]
		if merges(j) {
			stop++
		}
		for ; v >= stop; v-- {
			end, src := x, oldExamsOf(v)
			x -= len(src)
			copy(e.VisitExams[x:], src)
			place(e.VisitPatient[v], e.VisitDay[v], end)
		}
		end, add := x, newExamsOf(j)
		if !merges(j) {
			x -= len(add)
			copy(e.VisitExams[x:], add)
			place(newPatient[j], newDay[j], end)
			continue
		}
		// Merge the two exam lists, both in rank order, from the back.
		src := oldExamsOf(v)
		a, b := len(src)-1, len(add)-1
		for b >= 0 {
			x--
			switch {
			case a >= 0 && src[a] == add[b]:
				e.VisitExams[x] = src[a]
				a, b = a-1, b-1
			case a >= 0 && e.rank[src[a]] > e.rank[add[b]]:
				e.VisitExams[x] = src[a]
				a--
			default:
				e.VisitExams[x] = add[b]
				b--
			}
		}
		x -= a + 1
		copy(e.VisitExams[x:], src[:a+1])
		place(e.VisitPatient[v], e.VisitDay[v], end)
		v--
	}
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
