package stream

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/kdb"
	"adahealth/internal/stats"
	"adahealth/internal/vsm"
)

// TestRestartForgetsLastAnalysis: job IDs restart at job-000001 in
// every service, so a dataset recovered from a control record that
// names job-000001, as builds that persisted the pointer wrote it, must
// not name the new process's first job, which is another analysis.
func TestRestartForgetsLastAnalysis(t *testing.T) {
	dir := t.TempDir()
	svcA := testService(t, fastConfig(29, dir))
	k := svcA.Engine().KDB()
	log := genLog(t, 29, 40, 400)
	if err := k.AppendLiveBatch(kdb.LiveBatch{
		Dataset: "ward-job", Revision: 1,
		Exams: log.Exams, Patients: log.Patients, Records: log.Records,
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(map[string]any{
		"_id":           "live:ward-job",
		"dataset":       "ward-job",
		"revision":      1,
		"baseline":      stats.Characterize(log),
		"last_analysis": "job-000001",
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc docstore.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Store().Collection(kdb.CollLiveDatasets).Insert(doc); err != nil {
		t.Fatal(err)
	}

	svcB := testService(t, fastConfig(29, dir))
	mgr, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	j, err := svcB.Submit(context.Background(), genLog(t, 31, 30, 300))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, ok := mgr.Get("ward-job")
	if !ok {
		t.Fatal("the restart lost the dataset")
	}
	if got := d.Status().LastAnalysis; got == j.ID() {
		t.Fatalf("dataset names %s as its last analysis, an unrelated job of the new process", got)
	}
}

// TestRecoverRegistrationWithoutControlRecord: a kill between a
// registration's batch and its control record leaves the revision-1
// batch alone. The restarted manager finds the dataset by that batch,
// with the recovered log as its baseline, and a retried registration
// is refused, so no second revision-1 batch can make the next restart's
// replay fail.
func TestRecoverRegistrationWithoutControlRecord(t *testing.T) {
	dir := t.TempDir()
	svcA := testService(t, fastConfig(37, dir))
	log := genLog(t, 37, 40, 400)
	if err := svcA.Engine().KDB().AppendLiveBatch(kdb.LiveBatch{
		Dataset: "ward-orphan", Revision: 1,
		Exams: log.Exams, Patients: log.Patients, Records: log.Records,
	}); err != nil {
		t.Fatal(err)
	}

	svcB := testService(t, fastConfig(37, dir))
	mgr, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := mgr.Get("ward-orphan")
	if !ok {
		t.Fatal("a dataset with a durable registration batch did not recover")
	}
	if st := d.Status(); st.Revision != 1 || st.NumPatients != len(log.Patients) ||
		st.NumRecords != len(log.Records) || st.Drift != 0 {
		t.Fatalf("recovered status = %+v", st)
	}
	if _, err := mgr.Register("ward-orphan", log.Exams, log.Patients, log.Records); !errors.Is(err, ErrExists) {
		t.Fatalf("registering a recovered name again: err %v, want ErrExists", err)
	}
}

// TestDuplicateRegistrationBatchBoots: two equal revision-1 batches of
// one dataset, which a registration that failed after its write could
// leave in earlier builds, must not stop the manager from booting, and
// the dataset replays the revision once.
func TestDuplicateRegistrationBatchBoots(t *testing.T) {
	dir := t.TempDir()
	svcA := testService(t, fastConfig(43, dir))
	log := genLog(t, 43, 40, 400)
	for i := 0; i < 2; i++ {
		if err := svcA.Engine().KDB().AppendLiveBatch(kdb.LiveBatch{
			Dataset: "ward-dup", Revision: 1,
			Exams: log.Exams, Patients: log.Patients, Records: log.Records,
		}); err != nil {
			t.Fatal(err)
		}
	}

	svcB := testService(t, fastConfig(43, dir))
	mgr, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatalf("a store holding an equal duplicate batch did not boot: %v", err)
	}
	d, ok := mgr.Get("ward-dup")
	if !ok {
		t.Fatal("the dataset did not recover")
	}
	batches, err := svcB.Engine().KDB().LiveBatches("ward-dup")
	if err != nil {
		t.Fatal(err)
	}
	replay := dataset.NewLog("ward-dup")
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
	want, err := vsm.Build(replay, svcB.Engine().Config().VSM)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	err = vsm.Equivalent(d.live.Matrix(), want)
	d.mu.Unlock()
	if err != nil {
		t.Fatalf("recovered matrix differs from a straight replay: %v", err)
	}
}

// TestAppendIsOneWALCommit: after registration an append's one durable
// write is its batch, so each Dataset.Append advances the leader's WAL
// by exactly one frame.
func TestAppendIsOneWALCommit(t *testing.T) {
	svc := testService(t, fastConfig(41, t.TempDir()))
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	first, rest := splitLog(genLog(t, 41, 60, 600), 5)
	if _, err := mgr.Register("ward-frames", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("ward-frames")
	store := svc.Engine().KDB().Store()
	for i, b := range rest {
		before := store.ReplStatus().Frames
		if _, err := d.Append(nil, b.patients, b.records); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if got := store.ReplStatus().Frames - before; got != 1 {
			t.Fatalf("append %d wrote %d WAL frames, want 1", i, got)
		}
	}
}
