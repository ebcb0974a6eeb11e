package dataset_test

import (
	"encoding/json"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/synth"
)

// submission is the shape of an analysis request as far as the log
// decoder is concerned: a log member beside other members.
type submission struct {
	Name string       `json:"name,omitempty"`
	Log  *dataset.Log `json:"log,omitempty"`
}

// doorLog is the synthetic log of a submission with the given shape.
func doorLog(tb testing.TB, patients, examTypes, profiles int) *dataset.Log {
	cfg := synth.DefaultConfig()
	cfg.Seed = 7
	cfg.NumPatients = patients
	cfg.TargetRecords = 15 * patients
	cfg.NumExamTypes = examTypes
	cfg.NumProfiles = profiles
	log, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return log
}

// TestDecodeAllocatesArraysOnce: a generated submission's three arrays
// come back with their capacity equal to their length, whichever order
// the body lists them in.
func TestDecodeAllocatesArraysOnce(t *testing.T) {
	log := doorLog(t, 300, 40, 4)
	type recordsFirst struct {
		Records  []dataset.Record   `json:"records"`
		Patients []dataset.Patient  `json:"patients"`
		Exams    []dataset.ExamType `json:"exams"`
	}
	for _, l := range []any{log, recordsFirst{log.Records, log.Patients, log.Exams}} {
		body, err := json.Marshal(struct {
			Log any `json:"log"`
		}{l})
		if err != nil {
			t.Fatal(err)
		}
		var req submission
		if err := dataset.DecodeEnvelope(body, &req, &req.Log); err != nil {
			t.Fatal(err)
		}
		got := req.Log
		if len(got.Exams) != len(log.Exams) || len(got.Patients) != len(log.Patients) || len(got.Records) != len(log.Records) {
			t.Fatalf("decoded %d exams, %d patients, %d records; want %d, %d, %d",
				len(got.Exams), len(got.Patients), len(got.Records), len(log.Exams), len(log.Patients), len(log.Records))
		}
		if cap(got.Exams) != len(got.Exams) || cap(got.Patients) != len(got.Patients) || cap(got.Records) != len(got.Records) {
			t.Errorf("capacities %d, %d, %d for lengths %d, %d, %d",
				cap(got.Exams), cap(got.Patients), cap(got.Records), len(got.Exams), len(got.Patients), len(got.Records))
		}
	}
}

// benchmarkDecodeEnvelope times the door of an analysis request: one
// marshalled submission decoded by DecodeEnvelope and its log encoded
// and checked, as admission does before it queues the job.
func benchmarkDecodeEnvelope(b *testing.B, patients, examTypes, profiles int) {
	body, err := json.Marshal(submission{Name: "door", Log: doorLog(b, patients, examTypes, profiles)})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req submission
		if err := dataset.DecodeEnvelope(body, &req, &req.Log); err != nil {
			b.Fatal(err)
		}
		if err := req.Log.Encoded().Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeEnvelopeCohort is a cohort-cold submission: 1,000
// patients, 159 exam types, about 15,000 records.
func BenchmarkDecodeEnvelopeCohort(b *testing.B) { benchmarkDecodeEnvelope(b, 1000, 159, 8) }

// BenchmarkDecodeEnvelopeClinic is a clinic-sized submission: 300
// patients, 40 exam types, about 4,500 records.
func BenchmarkDecodeEnvelopeClinic(b *testing.B) { benchmarkDecodeEnvelope(b, 300, 40, 4) }
