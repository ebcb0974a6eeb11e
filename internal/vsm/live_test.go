package vsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/synth"
)

// appendBatch is one increment of an examination log: new exam types,
// new patients, and records referencing registered ids.
type appendBatch struct {
	exams    []dataset.ExamType
	patients []dataset.Patient
	records  []dataset.Record
}

// splitLog carves a finished log into a randomized append schedule:
// record runs of random length, with exam types and patients
// registered at first reference, a few patients registered early with
// no records yet (exercising zero rows), and a trailing batch that
// registers anything never referenced (exercising zero-count columns).
func splitLog(l *dataset.Log, rng *rand.Rand) []appendBatch {
	examOf := make(map[string]dataset.ExamType, len(l.Exams))
	for _, e := range l.Exams {
		examOf[e.Code] = e
	}
	patientOf := make(map[string]dataset.Patient, len(l.Patients))
	for _, p := range l.Patients {
		patientOf[p.ID] = p
	}
	regE := make(map[string]bool)
	regP := make(map[string]bool)

	var out []appendBatch
	n := len(l.Records)
	nextEarly := 0 // cursor into l.Patients for early registrations
	for i := 0; i < n; {
		j := i + 1 + rng.Intn(1+n/4)
		if j > n {
			j = n
		}
		var b appendBatch
		for rng.Intn(3) == 0 && nextEarly < len(l.Patients) {
			p := l.Patients[nextEarly]
			nextEarly++
			if !regP[p.ID] {
				regP[p.ID] = true
				b.patients = append(b.patients, p)
			}
		}
		for _, r := range l.Records[i:j] {
			if !regE[r.ExamCode] {
				regE[r.ExamCode] = true
				b.exams = append(b.exams, examOf[r.ExamCode])
			}
			if !regP[r.PatientID] {
				regP[r.PatientID] = true
				b.patients = append(b.patients, patientOf[r.PatientID])
			}
		}
		b.records = append(b.records, l.Records[i:j]...)
		out = append(out, b)
		i = j
	}
	var tail appendBatch
	for _, e := range l.Exams {
		if !regE[e.Code] {
			tail.exams = append(tail.exams, e)
		}
	}
	for _, p := range l.Patients {
		if !regP[p.ID] {
			tail.patients = append(tail.patients, p)
		}
	}
	if len(tail.exams) > 0 || len(tail.patients) > 0 {
		out = append(out, tail)
	}
	return out
}

func smallLog(t *testing.T, seed int64) *dataset.Log {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Seed = seed
	cfg.NumPatients = 70
	cfg.TargetRecords = 700
	cfg.NumExamTypes = 16
	l, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// shuffledLog returns l with its records in random order: split into
// a schedule, most batches then bring records of returning patients,
// and the exam ranking flips at most boundaries.
func shuffledLog(l *dataset.Log, rng *rand.Rand) *dataset.Log {
	out := &dataset.Log{Name: l.Name, Exams: l.Exams, Patients: l.Patients, Records: slices.Clone(l.Records)}
	rng.Shuffle(len(out.Records), func(i, j int) { out.Records[i], out.Records[j] = out.Records[j], out.Records[i] })
	return out
}

// TestLiveEquivalentToRebuild is the maintenance property: across
// randomized append schedules, every transform option, and every
// append boundary, the incrementally maintained Matrix — rows, raw
// counts, frequency metadata, and the in-place-updated CSR view with
// its cached norms — is bit-for-bit identical to Build on the
// equivalent accumulated log. The shuffled schedule's Binary cases
// check that an in-place re-weigh clears the cells a relayout emptied.
func TestLiveEquivalentToRebuild(t *testing.T) {
	weightings := []Weighting{Count, Binary, LogCount, TFIDF}
	norms := []Normalization{NoNorm, L2, L1}
	type schedule struct {
		name    string
		full    *dataset.Log
		batches []appendBatch
	}
	var schedules []schedule
	for _, seed := range []int64{1, 7, 42} {
		full := smallLog(t, seed)
		schedules = append(schedules, schedule{fmt.Sprintf("seed%d", seed), full, splitLog(full, rand.New(rand.NewSource(seed)))})
	}
	shuffled := shuffledLog(smallLog(t, 5), rand.New(rand.NewSource(5)))
	schedules = append(schedules, schedule{"shuffled5", shuffled, splitLog(shuffled, rand.New(rand.NewSource(5)))})
	for _, sc := range schedules {
		full, batches := sc.full, sc.batches
		for _, w := range weightings {
			for _, nm := range norms {
				opts := Options{Weighting: w, Normalization: nm}
				t.Run(fmt.Sprintf("%s/%s-%s", sc.name, w, nm), func(t *testing.T) {
					acc := dataset.NewLog(full.Name)
					live := NewLive(opts)
					for bi, b := range batches {
						for _, e := range b.exams {
							if err := acc.AddExam(e); err != nil {
								t.Fatal(err)
							}
						}
						for _, p := range b.patients {
							if err := acc.AddPatient(p); err != nil {
								t.Fatal(err)
							}
						}
						for _, r := range b.records {
							if err := acc.AddRecord(r); err != nil {
								t.Fatal(err)
							}
						}
						if err := live.Append(b.exams, b.patients, b.records); err != nil {
							t.Fatalf("batch %d: %v", bi, err)
						}
						if acc.NumPatients() == 0 || acc.NumExamTypes() == 0 {
							continue
						}
						want, err := Build(acc, opts)
						if err != nil {
							t.Fatalf("batch %d: rebuild: %v", bi, err)
						}
						if err := Equivalent(live.Matrix(), want); err != nil {
							t.Fatalf("after batch %d/%d: %v", bi+1, len(batches), err)
						}
					}
				})
			}
		}
	}
}

// TestLiveRejectsInvalidBatch: a rejected batch must leave the log's
// rows and the view untouched and equivalent to the last good state.
func TestLiveRejectsInvalidBatch(t *testing.T) {
	full := smallLog(t, 3)
	opts := Options{Weighting: Count, Normalization: L2}
	live := NewLive(opts)
	if err := live.Append(full.Exams, full.Patients, full.Records); err != nil {
		t.Fatal(err)
	}
	newPatient := dataset.Patient{ID: "P-new"}
	cases := []appendBatch{
		{}, // empty batch
		{exams: []dataset.ExamType{full.Exams[0]}},      // duplicate exam
		{patients: []dataset.Patient{full.Patients[0]}}, // duplicate patient
		{exams: []dataset.ExamType{{Code: "EX-new"}, {Code: "EX-new"}}},
		{patients: []dataset.Patient{newPatient, newPatient}},
		{exams: []dataset.ExamType{{Code: ""}}},             // empty code
		{patients: []dataset.Patient{newPatient, {ID: ""}}}, // empty ID
		{records: []dataset.Record{{PatientID: "nope", ExamCode: full.Exams[0].Code}}},
		{records: []dataset.Record{{PatientID: full.Patients[0].ID, ExamCode: "nope"}}},
		// A valid prefix must not be applied when a later row fails.
		{patients: []dataset.Patient{newPatient}, records: []dataset.Record{
			{PatientID: newPatient.ID, ExamCode: full.Exams[0].Code},
			{PatientID: newPatient.ID, ExamCode: "nope"},
		}},
	}
	want, err := Build(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cases {
		if err := live.Append(b.exams, b.patients, b.records); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
		got := live.Log()
		if !reflect.DeepEqual(got.Exams, full.Exams) || !reflect.DeepEqual(got.Patients, full.Patients) ||
			!reflect.DeepEqual(got.Records, full.Records) {
			t.Errorf("case %d: log rows mutated by rejected batch", i)
		}
		if err := Equivalent(live.Matrix(), want); err != nil {
			t.Errorf("case %d: view mutated by rejected batch: %v", i, err)
		}
	}
}

// TestLiveCSRPointerStableOnPureGrowth: an append of brand-new
// patients grows the maintained CSR matrix in place, and the result
// equals Build on the accumulated log.
func TestLiveCSRPointerStableOnPureGrowth(t *testing.T) {
	full := smallLog(t, 9)
	opts := Options{Weighting: Count, Normalization: NoNorm}

	// Batch 1: everything except the last few patients' records.
	// Batch 2: only brand-new patients (records of patients unseen in
	// batch 1), so the fast pure-growth path must extend the CSR in
	// place rather than reallocate it.
	lastIDs := map[string]bool{}
	for _, p := range full.Patients[len(full.Patients)-5:] {
		lastIDs[p.ID] = true
	}
	var b1, b2 appendBatch
	b1.exams = full.Exams
	for _, p := range full.Patients {
		if lastIDs[p.ID] {
			b2.patients = append(b2.patients, p)
		} else {
			b1.patients = append(b1.patients, p)
		}
	}
	for _, r := range full.Records {
		if lastIDs[r.PatientID] {
			b2.records = append(b2.records, r)
		} else {
			b1.records = append(b1.records, r)
		}
	}

	live := NewLive(opts)
	if err := live.Append(b1.exams, b1.patients, b1.records); err != nil {
		t.Fatal(err)
	}
	before := live.Matrix().Rows
	beforeRows := live.Matrix()

	// The new patients' records must not disturb the global frequency
	// ranking for the in-place path to fire; verify equivalence either
	// way, but assert identity only when the ranking held.
	if err := live.Append(nil, b2.patients, b2.records); err != nil {
		t.Fatal(err)
	}
	acc := dataset.NewLog(full.Name)
	for _, e := range b1.exams {
		acc.AddExam(e)
	}
	for _, p := range append(append([]dataset.Patient{}, b1.patients...), b2.patients...) {
		acc.AddPatient(p)
	}
	for _, r := range append(append([]dataset.Record{}, b1.records...), b2.records...) {
		acc.AddRecord(r)
	}
	want, err := Build(acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(live.Matrix(), want); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(beforeRows.Features, want.Features) && live.Matrix() == beforeRows {
		if live.Matrix().Rows != before {
			t.Error("pure-growth append replaced the CSR matrix instead of extending it in place")
		}
	}
}
