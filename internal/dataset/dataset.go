// Package dataset defines the medical examination-log data model used
// throughout ADA-HEALTH: patients, examination types, and timestamped
// examination records, together with loading and saving.
//
// The model mirrors the dataset described in Section IV of the paper:
// an anonymized log of diabetic patients where each record carries at
// least a unique patient identifier and the type and date of an exam.
//
// # The encoded log
//
// Log is the row form, for I/O and the public API. Every stage that
// characterizes or transforms a log reads its Encoded instead: integer
// patient and exam keys per record, a civil-day number per record, and
// the records grouped into visits by a counting sort on patient key. A
// Log caches its Encoded; the Add methods keep it in step, appending
// to the exported slices is noticed, and ReindexAfterLoad rebuilds it
// after rows were rewritten in place. Keeping it in step costs what
// was appended, not the log's history: new records are encoded and
// grouped on their own and merged into the visits of the patients
// they touch, which is an append when those patients are new.
// Encoded.Check reports whether the log is referentially clean, which
// the service checks at admission and core before an analysis; the
// encoding itself represents any log, clean or not, so Characterize
// never fails.
//
// A visit is a patient's records on one calendar date, the date being
// the record's own: 23:30 at −05:00 is that day, not the next one in
// UTC. Log.Visits dates a visit UTC midnight of that date. Spans
// between records (Descriptor.SpanDays) still come from instants.
//
// Concurrency: a Log guards its encoding with a mutex, so Encoded,
// Visits, Patient and Exam are safe to call from any number of
// goroutines, the first call (which builds the encoding) included.
// Writing rows — the Add methods, changing the exported slices,
// ReindexAfterLoad — must not overlap those calls or a reader's use of
// the Encoded they returned.
//
// The request decoder (DecodeEnvelope, DecodeBatch) reads
// JSON straight into rows, interning ids, exactly as encoding/json
// would read it into the same types (FuzzDecodeLogMatchesStdlib).
package dataset

import (
	"fmt"
	"sync"
	"time"
)

// ExamType describes one kind of medical examination (e.g. a regular
// checkup or a specific diagnostic test for a complication).
type ExamType struct {
	// Code is the unique identifier of the exam type, e.g. "EX042".
	Code string `json:"code"`
	// Name is a human-readable label.
	Name string `json:"name"`
	// Category groups exam types at a coarser abstraction level
	// (used by the taxonomy-aware pattern miner), e.g. "routine",
	// "cardiovascular", "renal", "ophthalmic".
	Category string `json:"category"`
}

// Patient is one anonymized patient.
type Patient struct {
	// ID is the unique patient identifier, e.g. "P000017".
	ID string `json:"id"`
	// Age in years at the start of the observation period.
	Age int `json:"age"`
	// Profile is the hidden generating profile for synthetic data
	// (ground truth for evaluation only; empty for real data). It is
	// never consumed by the mining pipeline itself.
	Profile string `json:"profile,omitempty"`
}

// Record is a single examination event: patient, exam type and date.
type Record struct {
	PatientID string    `json:"patient_id"`
	ExamCode  string    `json:"exam_code"`
	Date      time.Time `json:"date"`
}

// Log is a complete examination log: the exam-type catalog, the patient
// registry and all records. A Log is the unit of input to the
// ADA-HEALTH pipeline.
type Log struct {
	Name     string     `json:"name"`
	Exams    []ExamType `json:"exams"`
	Patients []Patient  `json:"patients"`
	Records  []Record   `json:"records"`

	// mu guards enc, the dictionary-coded form, built lazily by
	// Encoded and kept in step by the Add methods.
	mu  sync.Mutex
	enc *Encoded
}

// NewLog returns an empty Log with the given name.
func NewLog(name string) *Log {
	return &Log{Name: name}
}

// AddExam registers an exam type. Duplicate codes are rejected.
func (l *Log) AddExam(e ExamType) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := l.dicts()
	if k, dup := enc.examOf[e.Code]; dup && int(k) < enc.NumExams {
		return fmt.Errorf("dataset: duplicate exam code %q", e.Code)
	}
	l.Exams = append(l.Exams, e)
	if len(enc.ExamCodes) > enc.NumExams {
		// Unregistered codes hold the keys above the registration rows;
		// re-encode rather than renumber them.
		l.enc = nil
		return nil
	}
	enc.examOf[e.Code] = int32(enc.NumExams)
	enc.ExamCodes = append(enc.ExamCodes, e.Code)
	enc.NumExams++
	return nil
}

// AddPatient registers a patient. Duplicate IDs are rejected.
func (l *Log) AddPatient(p Patient) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := l.dicts()
	if k, dup := enc.patientOf[p.ID]; dup && int(k) < enc.NumPatients {
		return fmt.Errorf("dataset: duplicate patient ID %q", p.ID)
	}
	l.Patients = append(l.Patients, p)
	if len(enc.PatientIDs) > enc.NumPatients {
		l.enc = nil
		return nil
	}
	enc.patientOf[p.ID] = int32(enc.NumPatients)
	enc.PatientIDs = append(enc.PatientIDs, p.ID)
	enc.NumPatients++
	return nil
}

// AddRecord appends an examination record. The patient and exam type
// must already be registered.
func (l *Log) AddRecord(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := l.dicts()
	if k, ok := enc.patientOf[r.PatientID]; !ok || int(k) >= enc.NumPatients {
		return fmt.Errorf("dataset: record references unknown patient %q", r.PatientID)
	}
	if k, ok := enc.examOf[r.ExamCode]; !ok || int(k) >= enc.NumExams {
		return fmt.Errorf("dataset: record references unknown exam code %q", r.ExamCode)
	}
	l.Records = append(l.Records, r)
	return nil
}

// dicts returns the encoding with at least its registration
// dictionaries current, starting over when the exported fields were
// changed behind the Add methods' back. l.mu must be held.
func (l *Log) dicts() *Encoded {
	e := l.enc
	if e == nil || e.NumPatients != len(l.Patients) || e.NumExams != len(l.Exams) || len(e.Patient) > len(l.Records) {
		e = newEncoded(l)
		l.enc = e
	}
	return e
}

// Encoded returns the log's dictionary-coded form, bringing it up to
// date with the rows appended since the last call: it encodes the new
// records, merges them into the visits of the patients they touch, and
// re-ranks the exam codes when new ones arrived. The result equals the
// encoding a fresh Log over the same rows gives, field for field.
func (l *Log) Encoded() *Encoded {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.encodedLocked()
}

func (l *Log) encodedLocked() *Encoded {
	e := l.dicts()
	if len(e.Patient) < len(l.Records) {
		e.encodeRecords(l.Records[len(e.Patient):])
	}
	if e.grouped != len(l.Records) || len(e.rank) != len(e.ExamCodes) {
		e.group()
	}
	return e
}

// ReindexAfterLoad rebuilds the encoding from scratch. It must be
// called after changing the exported fields in place (e.g. rewriting
// ids); appending rows, registrations included, is noticed without it.
func (l *Log) ReindexAfterLoad() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc = nil
	l.encodedLocked()
}

// Exam returns the exam type for code, if registered.
func (l *Log) Exam(code string) (ExamType, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := l.dicts()
	i, ok := enc.examOf[code]
	if !ok || int(i) >= enc.NumExams {
		return ExamType{}, false
	}
	return l.Exams[i], true
}

// Patient returns the patient for id, if registered.
func (l *Log) Patient(id string) (Patient, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := l.dicts()
	i, ok := enc.patientOf[id]
	if !ok || int(i) >= enc.NumPatients {
		return Patient{}, false
	}
	return l.Patients[i], true
}

// NumPatients reports the number of registered patients.
func (l *Log) NumPatients() int { return len(l.Patients) }

// NumExamTypes reports the number of registered exam types.
func (l *Log) NumExamTypes() int { return len(l.Exams) }

// NumRecords reports the number of examination records.
func (l *Log) NumRecords() int { return len(l.Records) }

// ExamFrequencies returns, for every exam code, the number of records
// of that exam type. Codes with zero records are included.
func (l *Log) ExamFrequencies() map[string]int {
	freq := make(map[string]int, len(l.Exams))
	for _, e := range l.Exams {
		freq[e.Code] = 0
	}
	for _, r := range l.Records {
		freq[r.ExamCode]++
	}
	return freq
}

// TimeSpan returns the earliest and latest record dates, the first
// record holding each when several share the instant. ok is false
// when the log holds no records. The encoding tracks both as it
// encodes records, so this does not rescan them.
func (l *Log) TimeSpan() (min, max time.Time, ok bool) {
	e := l.Encoded()
	return e.first, e.last, len(e.Day) > 0
}

// Visit is the set of exams one patient underwent on one date. Visits
// are the transactional unit consumed by the frequent-pattern miner.
type Visit struct {
	PatientID string
	Date      time.Time
	ExamCodes []string
}

// Visits groups records into per-patient per-day visits: a visit is
// a record's calendar date in the record's own UTC offset, dated UTC
// midnight. Exam codes within a visit are sorted and de-duplicated;
// visits are ordered by patient registration order, then date. It is
// a projection of Encoded's visit arrays.
func (l *Log) Visits() []Visit {
	e := l.Encoded()
	codes := make([]string, len(e.VisitExams))
	for i, x := range e.VisitExams {
		codes[i] = e.ExamCodes[x]
	}
	visits := make([]Visit, e.NumVisits())
	for v := range visits {
		lo, hi := e.VisitPtr[v], e.VisitPtr[v+1]
		visits[v] = Visit{
			PatientID: e.PatientIDs[e.VisitPatient[v]],
			Date:      DayTime(e.VisitDay[v]),
			ExamCodes: codes[lo:hi:hi],
		}
	}
	return visits
}
