package stream

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/kdb"
	"adahealth/internal/obs"
	"adahealth/internal/service"
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
	if _, err := k.Store().Collection("live_datasets").Insert(doc); err != nil {
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

// TestRecoverRegistrationWithoutControlRecord: a revision-1 batch with
// no descriptor beside it, as a build that wrote the registration's
// baseline to a control record in a second commit could leave it after
// a kill. The restarted manager finds the dataset by that batch, with
// the recovered log as its baseline, and a retried registration is
// refused, so no second revision-1 batch can make the next restart's
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

// TestRegisterIsOneWALCommit: a registration's durable write is one
// group commit of two frames, the descriptor of the revision-1 log and
// the revision-1 batch (kdb.TestLiveStateRoundTrip pins their order).
func TestRegisterIsOneWALCommit(t *testing.T) {
	svc := testService(t, fastConfig(47, t.TempDir()))
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	log := genLog(t, 47, 40, 400)
	store := svc.Engine().KDB().Store()
	commits := func() float64 { return obs.Default().Value("docstore_wal_commit_seconds") }
	commits0, frames0 := commits(), store.ReplStatus().Frames
	if _, err := mgr.Register("ward-one-commit", log.Exams, log.Patients, log.Records); err != nil {
		t.Fatal(err)
	}
	if frames, n := store.ReplStatus().Frames-frames0, commits()-commits0; frames != 2 || n != 1 {
		t.Fatalf("registration wrote %d WAL frames in %v commits, want 2 in 1", frames, n)
	}
}

// baselineOf reads a dataset's drift baseline and gauge.
func baselineOf(d *Dataset) (stats.Descriptor, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return *d.baseline, d.drift
}

// TestFailedResweepKeepsBaseline: a resweep that fails before
// store-knowledge (its sweep grid holds a K above the log's 60
// patients, which the sweep stage refuses) stores no descriptor, so the
// baseline stays the registration's, at runtime and after a restart,
// and the restarted gauge is bit-equal.
func TestFailedResweepKeepsBaseline(t *testing.T) {
	const name = "ward-failing"
	dir := t.TempDir()
	cfg := fastConfig(53, dir)
	cfg.Sweep.Ks = []int{3, 4, 1000}
	svcA := testService(t, cfg)
	mgrA, err := NewManager(Config{Service: svcA, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	first, rest := splitLog(genLog(t, 53, 60, 600), 1)
	if _, err := mgrA.Register(name, first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgrA.Get(name)
	registered, _ := baselineOf(d)
	st, err := d.Append(nil, rest[0].patients, rest[0].records)
	if err != nil || !st.Resweeping {
		t.Fatalf("append did not schedule a resweep: %+v, %v", st, err)
	}
	before := waitStatus(t, d, "resweep completion", func(st DatasetStatus) bool { return !st.Resweeping })
	if h := d.events.History(); h[len(h)-1].Type != EventResweepComplete || !strings.Contains(h[len(h)-1].Err, "K=1000 exceeds") {
		t.Fatalf("last event %+v, want the completion of a resweep the sweep failed", h[len(h)-1])
	}
	if got, _ := baselineOf(d); !reflect.DeepEqual(got, registered) {
		t.Fatalf("a failed resweep moved the baseline to %+v", got)
	}

	svcB := testService(t, fastConfig(53, dir))
	mgrB, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := mgrB.Get(name)
	if !ok {
		t.Fatal("the restart lost the dataset")
	}
	got, drift := baselineOf(d)
	if !reflect.DeepEqual(got, registered) || math.Float64bits(drift) != math.Float64bits(before.Drift) {
		t.Fatalf("after a restart: baseline %+v, drift %v; want the registration's, drift %v", got, drift, before.Drift)
	}
}

// TestBatchJobUnderLiveNameIsItsAnalysis pins the baseline rule's one
// semantic edge: one name is one dataset. A batch job stored under a
// live dataset's name counts as an analysis of that dataset: it leaves
// the running baseline alone, and becomes the baseline at the next
// resweep end or, here, restart.
func TestBatchJobUnderLiveNameIsItsAnalysis(t *testing.T) {
	const name = "ward-shared"
	dir := t.TempDir()
	svcA := testService(t, fastConfig(59, dir))
	mgrA, err := NewManager(Config{Service: svcA, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	log := genLog(t, 59, 40, 400)
	if _, err := mgrA.Register(name, log.Exams, log.Patients, log.Records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgrA.Get(name)
	registered, _ := baselineOf(d)

	batch := genLog(t, 61, 50, 500)
	batch.Name = name
	j, err := svcA.Submit(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rep.Descriptor, registered) {
		t.Fatal("the batch job's descriptor equals the registration's; the test shows nothing")
	}
	if got, _ := baselineOf(d); !reflect.DeepEqual(got, registered) {
		t.Fatal("a batch job moved the running baseline before any resweep ended")
	}

	svcB := testService(t, fastConfig(59, dir))
	mgrB, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, _ = mgrB.Get(name)
	got, drift := baselineOf(d)
	if !reflect.DeepEqual(got, rep.Descriptor) {
		t.Fatalf("after a restart the baseline is %+v, want the batch job's descriptor", got)
	}
	if want := 1 - kdb.DescriptorSimilarity(rep.Descriptor, stats.Characterize(d.live.Log())); drift != want {
		t.Fatalf("after a restart drift %v, want %v against the batch job's descriptor", drift, want)
	}
}

// TestFailedRegistrationWriteDiscardsDataset: a registration applies
// its batch in memory before its one commit, so a commit the WAL
// refuses must discard the whole dataset: Register answers
// ErrDurability, the name is free, and a restart over the directory
// knows neither the dataset nor its descriptor.
func TestFailedRegistrationWriteDiscardsDataset(t *testing.T) {
	const name = "ward-unwritten"
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	k, err := kdb.OpenStore(docstore.Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewWithKDB(fastConfig(67, ""), k)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.NewWithEngine(engine, service.Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { _ = svc.Close() })
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	log := genLog(t, 67, 40, 400)
	if _, err := mgr.Register(name, log.Exams, log.Patients, log.Records); !errors.Is(err, ErrDurability) {
		t.Fatalf("registration over a failing WAL: err %v, want ErrDurability", err)
	}
	if _, ok := mgr.Get(name); ok || len(mgr.Datasets()) != 0 {
		t.Fatalf("a registration whose write failed left %+v", mgr.Datasets())
	}

	svcB := testService(t, fastConfig(67, dir))
	mgrB, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := mgrB.Datasets(); len(got) != 0 {
		t.Fatalf("restart recovered %+v from a registration that never committed", got)
	}
	if _, _, ok := svcB.Engine().KDB().LatestDescriptor(name); ok {
		t.Fatal("restart found the descriptor of a registration that never committed")
	}
}
