package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/service"
	"adahealth/internal/vsm"
)

// durableManager starts a service and a manager over the K-DB in dir.
// The service's background flush waits an hour, so a service the test
// abandons, as a killed process is abandoned, never writes to dir
// again while a later one runs over it.
func durableManager(t *testing.T, seed int64, dir string, threshold float64) (*service.Service, *Manager) {
	t.Helper()
	svc, err := service.New(service.Config{Engine: fastConfig(seed, dir), Workers: 2, QueueDepth: 8, FlushDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return svc, mgr
}

// TestRecoveryMatchesStraightReplay is the stream linearisation
// property. Seeded schedules interleave appends (to new and to
// returning patients, some with new exam types), drift-triggered
// resweeps run to completion, K-DB flushes and kill-and-restart between
// whole appends. After every restart the recovered dataset holds the
// revision of the last acked batch and the same patient, exam and
// record counts, its matrix is equivalent to vsm.Build over a straight
// replay of kdb.LiveBatches, and its drift gauge is bit-equal to the
// gauge before the kill.
func TestRecoveryMatchesStraightReplay(t *testing.T) {
	const name, appends = "live-lin", 60
	day := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			svc, mgr := durableManager(t, seed, dir, 0.05)
			base := genLog(t, seed, 40, 400)
			st, err := mgr.Register(name, base.Exams, base.Patients, base.Records)
			if err != nil {
				t.Fatal(err)
			}
			acked := st.Revision
			patients := make([]string, 0, len(base.Patients)+appends)
			for _, p := range base.Patients {
				patients = append(patients, p.ID)
			}
			exams := make([]string, 0, len(base.Exams)+appends)
			for _, e := range base.Exams {
				exams = append(exams, e.Code)
			}
			quiesce := func(d *Dataset) DatasetStatus {
				return waitStatus(t, d, "resweep completion", func(st DatasetStatus) bool { return !st.Resweeping })
			}
			restarts, resweeps := 0, 0
			restart := func(at int) {
				t.Helper()
				d, _ := mgr.Get(name)
				before := quiesce(d)
				svc, mgr = durableManager(t, seed, dir, 0.05)
				restarts++
				d, ok := mgr.Get(name)
				if !ok {
					t.Fatalf("after append %d: the restart lost the dataset", at)
				}
				after := d.Status()
				if after.Revision != acked || after.NumPatients != before.NumPatients ||
					after.NumExamTypes != before.NumExamTypes || after.NumRecords != before.NumRecords {
					t.Fatalf("after append %d: recovered %+v, want revision %d and the counts of %+v", at, after, acked, before)
				}
				if math.Float64bits(after.Drift) != math.Float64bits(before.Drift) {
					t.Fatalf("after append %d: recovered drift %v, want %v", at, after.Drift, before.Drift)
				}
				batches, err := svc.Engine().KDB().LiveBatches(name)
				if err != nil {
					t.Fatal(err)
				}
				replay := dataset.NewLog(name)
				for _, b := range batches {
					for _, e := range b.Exams {
						if err := replay.AddExam(e); err != nil {
							t.Fatal(err)
						}
					}
					for _, p := range b.Patients {
						if err := replay.AddPatient(p); err != nil {
							t.Fatal(err)
						}
					}
					for _, r := range b.Records {
						if err := replay.AddRecord(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, err := vsm.Build(replay, svc.Engine().Config().VSM)
				if err != nil {
					t.Fatal(err)
				}
				d.mu.Lock()
				err = vsm.Equivalent(d.live.Matrix(), want)
				d.mu.Unlock()
				if err != nil {
					t.Fatalf("after append %d: recovered matrix differs from a straight replay: %v", at, err)
				}
			}

			for i := 0; i < appends; i++ {
				var (
					newExams    []Exam
					newPatients []Patient
					records     []Record
				)
				if rng.Intn(8) == 0 {
					code := fmt.Sprintf("LX%03d", i)
					newExams = append(newExams, Exam{Code: code, Name: code})
					exams = append(exams, code)
				}
				var who []string
				if rng.Intn(5) < 2 { // returning patients
					for n := 1 + rng.Intn(3); n > 0; n-- {
						who = append(who, patients[rng.Intn(len(patients))])
					}
				} else {
					id := fmt.Sprintf("LP%03d", i)
					newPatients = append(newPatients, Patient{ID: id, Age: 20 + rng.Intn(60)})
					patients = append(patients, id)
					who = append(who, id)
				}
				for _, id := range who {
					for n := 1 + rng.Intn(4); n > 0; n-- {
						records = append(records, Record{
							PatientID: id,
							ExamCode:  exams[rng.Intn(len(exams))],
							Date:      day.AddDate(0, 0, i+rng.Intn(3)),
						})
					}
				}
				d, _ := mgr.Get(name)
				st, err := d.Append(newExams, newPatients, records)
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				acked = st.Revision
				if st.Resweeping {
					resweeps++
				}
				switch rng.Intn(10) {
				case 0, 1:
					quiesce(d)
				case 2, 3:
					if err := svc.Engine().KDB().Flush(); err != nil {
						t.Fatalf("flush after append %d: %v", i, err)
					}
				case 4:
					restart(i)
				}
			}
			restart(appends)
			if resweeps == 0 {
				t.Fatal("no append scheduled or found a resweep")
			}
			t.Logf("%d restarts; %d appends left a resweep in flight", restarts, resweeps)
		})
	}
}
