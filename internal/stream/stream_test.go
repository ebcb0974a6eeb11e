package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/kdb"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/service"
	"adahealth/internal/stats"
	"adahealth/internal/synth"
	"adahealth/internal/vsm"
)

// fastConfig is the quick analysis configuration the service tests use,
// optionally durable.
func fastConfig(seed int64, dir string) core.Config {
	return core.Config{
		KDBDir:  dir,
		Seed:    seed,
		Partial: partial.Config{Ks: []int{4}},
		Sweep:   optimize.SweepConfig{Ks: []int{3, 4, 5}, CVFolds: 4},
	}
}

func testService(t *testing.T, cfg core.Config) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{Engine: cfg, Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

func genLog(t *testing.T, seed int64, patients, records int) *dataset.Log {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Seed = seed
	cfg.NumPatients = patients
	cfg.TargetRecords = records
	log, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// splitLog partitions a log into an initial batch (all exams, the first
// half of the patients and their records) plus per-slice append batches
// over the remaining patients. Records stay with their patient, so
// every batch is valid against the accumulated state.
func splitLog(full *dataset.Log, parts int) (first struct {
	exams    []Exam
	patients []Patient
	records  []Record
}, rest []struct {
	patients []Patient
	records  []Record
}) {
	half := len(full.Patients) / 2
	member := map[string]int{} // patient -> batch index; 0 = first
	first.exams = full.Exams
	first.patients = full.Patients[:half]
	for _, p := range first.patients {
		member[p.ID] = 0
	}
	rest = make([]struct {
		patients []Patient
		records  []Record
	}, parts)
	for i, p := range full.Patients[half:] {
		b := i * parts / (len(full.Patients) - half)
		rest[b].patients = append(rest[b].patients, p)
		member[p.ID] = b + 1
	}
	for _, r := range full.Records {
		if b := member[r.PatientID]; b == 0 {
			first.records = append(first.records, r)
		} else {
			rest[b-1].records = append(rest[b-1].records, r)
		}
	}
	return first, rest
}

// waitStatus polls a dataset until cond holds.
func waitStatus(t *testing.T, d *Dataset, what string, cond func(DatasetStatus) bool) DatasetStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := d.Status()
		if cond(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last status %+v", what, d.Status())
	return DatasetStatus{}
}

func TestRegisterAndValidation(t *testing.T) {
	svc := testService(t, fastConfig(1, ""))
	mgr, err := NewManager(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}

	log := genLog(t, 1, 40, 400)
	st, err := mgr.Register("live-reg", log.Exams, log.Patients, log.Records)
	if err != nil {
		t.Fatal(err)
	}
	if st.Revision != 1 || st.NumPatients != len(log.Patients) || st.NumRecords != len(log.Records) {
		t.Fatalf("registration status = %+v", st)
	}
	if st.Drift != 0 {
		t.Fatalf("registration drift = %v, want 0", st.Drift)
	}

	if _, err := mgr.Register("live-reg", nil, nil, nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, ok := mgr.Get("nope"); ok {
		t.Fatal("Get resolved an unregistered dataset")
	}

	d, _ := mgr.Get("live-reg")
	if _, err := d.Append(nil, nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := d.Append(nil, nil, []Record{{PatientID: "ghost", ExamCode: log.Exams[0].Code}}); err == nil {
		t.Fatal("record over unknown patient accepted")
	}
	if _, err := d.Append(nil, []Patient{{ID: log.Patients[0].ID}}, nil); err == nil {
		t.Fatal("duplicate patient accepted")
	}
	if got := d.Status().Revision; got != 1 {
		t.Fatalf("rejected batches moved the revision to %d", got)
	}

	// A valid append moves revision and counts.
	st2, err := d.Append(nil, []Patient{{ID: "PX-1", Age: 33}},
		[]Record{{PatientID: "PX-1", ExamCode: log.Exams[0].Code, Date: time.Now()}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Revision != 2 || st2.NumPatients != len(log.Patients)+1 {
		t.Fatalf("append status = %+v", st2)
	}
}

// TestIncrementalMatchesRebuild is the satellite property at the
// subsystem level: at every append boundary the dataset's incrementally
// maintained VSM is bit-for-bit equivalent to vsm.Build on the
// accumulated log, and its descriptor equals stats.Characterize.
func TestIncrementalMatchesRebuild(t *testing.T) {
	svc := testService(t, fastConfig(3, ""))
	// Effectively-unreachable threshold: no resweeps disturb the run.
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	full := genLog(t, 3, 80, 900)
	first, rest := splitLog(full, 5)

	if _, err := mgr.Register("live-prop", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("live-prop")

	acc := dataset.NewLog("live-prop")
	apply := func(exams []Exam, patients []Patient, records []Record) {
		for _, e := range exams {
			if err := acc.AddExam(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range patients {
			if err := acc.AddPatient(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range records {
			if err := acc.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(boundary int) {
		t.Helper()
		want, err := vsm.Build(acc, svc.Engine().Config().VSM)
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		got := d.live.Matrix()
		if err := vsm.Equivalent(got, want); err != nil {
			d.mu.Unlock()
			t.Fatalf("VSM diverged at boundary %d: %v", boundary, err)
		}
		gotDesc := stats.Characterize(d.live.Log())
		d.mu.Unlock()
		if wantDesc := stats.Characterize(acc); !reflect.DeepEqual(gotDesc, wantDesc) {
			t.Fatalf("descriptor diverged at boundary %d:\nwant %+v\ngot  %+v", boundary, wantDesc, gotDesc)
		}
	}

	apply(first.exams, first.patients, first.records)
	check(0)
	for i, b := range rest {
		if len(b.patients) == 0 && len(b.records) == 0 {
			continue
		}
		if _, err := d.Append(nil, b.patients, b.records); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		apply(nil, b.patients, b.records)
		check(i + 1)
	}
}

// TestDriftTriggersResweep: with a hair-trigger threshold, the first
// real append schedules a full re-analysis, and its completion resets
// the drift baseline to the report's descriptor.
func TestDriftTriggersResweep(t *testing.T) {
	svc := testService(t, fastConfig(5, ""))
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	full := genLog(t, 5, 60, 600)
	first, rest := splitLog(full, 1)

	if _, err := mgr.Register("live-drift", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("live-drift")
	ch, cancel := d.Subscribe()
	defer cancel()

	st, err := d.Append(nil, rest[0].patients, rest[0].records)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resweeping || st.ResweepJob == "" {
		t.Fatalf("append did not schedule a resweep: %+v", st)
	}

	final := waitStatus(t, d, "resweep completion", func(st DatasetStatus) bool {
		return !st.Resweeping && st.LastAnalysis != ""
	})
	if final.LastAnalysis != st.ResweepJob {
		t.Fatalf("last analysis %q, want the scheduled job %q", final.LastAnalysis, st.ResweepJob)
	}

	// Baseline moved to the report's descriptor, so the drift gauge
	// re-measures movement since this analysis.
	j, ok := svc.Job(final.LastAnalysis)
	if !ok {
		t.Fatalf("resweep job %q unknown to the service", final.LastAnalysis)
	}
	rep, ok := j.Report()
	if !ok {
		t.Fatal("completed resweep has no report")
	}
	d.mu.Lock()
	baseline := *d.baseline
	current := stats.Characterize(d.live.Log())
	d.mu.Unlock()
	if !reflect.DeepEqual(baseline, rep.Descriptor) {
		t.Fatal("baseline did not reset to the resweep report's descriptor")
	}
	if got := 1 - kdb.DescriptorSimilarity(baseline, current); got != final.Drift {
		t.Fatalf("drift gauge %v, want recomputed %v", final.Drift, got)
	}

	// The event stream carried the full lifecycle in order.
	types := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(types) < 5 {
		select {
		case ev := <-ch:
			types[ev.Type] = true
		case <-deadline:
			t.Fatalf("event stream incomplete after 10s: %v", types)
		}
	}
	for _, want := range []string{EventRegistered, EventAppended, EventModelUpdated, EventResweepScheduled, EventResweepComplete} {
		if !types[want] {
			t.Errorf("event stream missing %q", want)
		}
	}
}

// TestResweepReportMatchesEngine is the acceptance property: the
// drift-triggered full re-analysis produces a Report bit-for-bit
// identical (modulo execution telemetry, as the scheduling-
// equivalence test strips) to core.Engine analysis of the equivalent
// accumulated batch log.
func TestResweepReportMatchesEngine(t *testing.T) {
	const seed = 7
	svc := testService(t, fastConfig(seed, t.TempDir()))
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	full := genLog(t, seed, 60, 600)
	first, rest := splitLog(full, 1)

	if _, err := mgr.Register("live-eq", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("live-eq")
	st, err := d.Append(nil, rest[0].patients, rest[0].records)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResweepJob == "" {
		t.Fatalf("append did not schedule a resweep: %+v", st)
	}

	waitStatus(t, d, "resweep completion", func(st DatasetStatus) bool {
		return !st.Resweeping && st.LastAnalysis != ""
	})
	j, ok := svc.Job(d.Status().LastAnalysis)
	if !ok {
		t.Fatal("resweep job unknown to the service")
	}
	got, ok := j.Report()
	if !ok {
		t.Fatal("completed resweep has no report")
	}

	// A fresh engine (same config and seed, its own empty K-DB) over
	// the equivalent accumulated batch log.
	engine, err := core.New(fastConfig(seed, ""))
	if err != nil {
		t.Fatal(err)
	}
	batchLog := &dataset.Log{
		Name:     "live-eq",
		Exams:    append([]Exam(nil), first.exams...),
		Patients: append(append([]Patient(nil), first.patients...), rest[0].patients...),
		Records:  append(append([]Record(nil), first.records...), rest[0].records...),
	}
	want, err := engine.AnalyzeWith(context.Background(), batchLog, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparableReport(got), comparableReport(want)) {
		t.Fatal("resweep report diverged from engine analysis of the accumulated log")
	}
}

// TestResweepSnapshotIgnoresLaterAppends: the resweep's log shares
// the live log's rows, and appends that land while it is queued and
// running leave its Report equal to core.Engine analysis of the rows
// the log held when the resweep was scheduled. Under -race it also
// shows the appends and the analysis touch no row in common.
func TestResweepSnapshotIgnoresLaterAppends(t *testing.T) {
	const seed = 11
	svc := testService(t, fastConfig(seed, ""))
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	first, rest := splitLog(genLog(t, seed, 60, 600), 1)
	if _, err := mgr.Register("live-snap", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("live-snap")
	st, err := d.Append(nil, rest[0].patients, rest[0].records)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResweepJob == "" {
		t.Fatalf("append did not schedule a resweep: %+v", st)
	}
	d.mu.Lock()
	l := d.live.Log()
	scheduled := &dataset.Log{
		Name:     "live-snap",
		Exams:    append([]Exam(nil), l.Exams...),
		Patients: append([]Patient(nil), l.Patients...),
		Records:  append([]Record(nil), l.Records...),
	}
	d.mu.Unlock()

	// One new patient per append, each with a record of every exam
	// type, until the resweep has finished.
	deadline := time.Now().Add(30 * time.Second)
	appended := 0
	for ; d.Status().Resweeping; appended++ {
		if time.Now().After(deadline) {
			t.Fatal("resweep did not finish within 30s")
		}
		p := Patient{ID: fmt.Sprintf("late-%04d", appended), Age: 40}
		var recs []Record
		for i, e := range scheduled.Exams {
			recs = append(recs, Record{PatientID: p.ID, ExamCode: e.Code, Date: scheduled.Records[i%len(scheduled.Records)].Date})
		}
		if _, err := d.Append(nil, []Patient{p}, recs); err != nil {
			t.Fatal(err)
		}
	}
	if appended == 0 {
		t.Fatal("no append landed while the resweep was in flight")
	}
	j, ok := svc.Job(st.ResweepJob)
	if !ok {
		t.Fatal("resweep job unknown to the service")
	}
	got, ok := j.Report()
	if !ok {
		t.Fatalf("resweep has no report: %v", j.Err())
	}
	engine, err := core.New(fastConfig(seed, ""))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.AnalyzeWith(context.Background(), scheduled, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparableReport(got), comparableReport(want)) {
		t.Fatalf("resweep report diverged from engine analysis of the %d patients at scheduling time (%d appends since)", len(scheduled.Patients), appended)
	}
}

// comparableReport strips execution telemetry and the closure-bearing
// recommendations, as the core scheduling-equivalence test does.
func comparableReport(rep *core.Report) core.Report {
	c := *rep
	c.Stages = nil
	c.StageConcurrency = 0
	c.Recommendations = nil
	return c
}

// TestManagerRecovery: a manager over a K-DB directory another manager
// wrote resumes every live dataset — including an append whose control
// record never landed (the crash-between-ack-and-update window), which
// must replay from the batch log.
func TestManagerRecovery(t *testing.T) {
	dir := t.TempDir()
	svcA := testService(t, fastConfig(11, dir))
	mgrA, err := NewManager(Config{Service: svcA, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	full := genLog(t, 11, 50, 500)
	first, rest := splitLog(full, 2)
	if _, err := mgrA.Register("live-rec", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	dA, _ := mgrA.Get("live-rec")
	if _, err := dA.Append(nil, rest[0].patients, rest[0].records); err != nil {
		t.Fatal(err)
	}
	before := dA.Status()

	// Simulate the crash window: revision 3 reaches the WAL (the client
	// was acked) but no control record update follows.
	if err := svcA.Engine().KDB().AppendLiveBatch(kdb.LiveBatch{
		Dataset:  "live-rec",
		Revision: before.Revision + 1,
		Patients: rest[1].patients,
		Records:  rest[1].records,
	}); err != nil {
		t.Fatal(err)
	}

	// A second service over the same directory (the WAL replays; the
	// first is abandoned as a killed process would be).
	svcB := testService(t, fastConfig(11, dir))
	mgrB, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	dB, ok := mgrB.Get("live-rec")
	if !ok {
		t.Fatal("recovered manager lost the live dataset")
	}
	after := dB.Status()
	if after.Revision != before.Revision+1 {
		t.Fatalf("recovered revision %d, want %d (acked append lost)", after.Revision, before.Revision+1)
	}
	if after.ModelRevision != after.Revision {
		t.Fatalf("recovery did not catch the model up: %+v", after)
	}
	wantRecords := before.NumRecords + len(rest[1].records)
	if after.NumRecords != wantRecords {
		t.Fatalf("recovered %d records, want %d", after.NumRecords, wantRecords)
	}

	// The recovered dataset keeps accepting appends.
	if _, err := dB.Append(nil, []Patient{{ID: "PR-1", Age: 40}},
		[]Record{{PatientID: "PR-1", ExamCode: first.exams[0].Code, Date: time.Now()}}); err != nil {
		t.Fatal(err)
	}
	if got := dB.Status().Revision; got != after.Revision+1 {
		t.Fatalf("post-recovery append revision %d, want %d", got, after.Revision+1)
	}
}

// TestAppendDuringFailedRegistration: an append that finds a dataset
// whose registration then fails is refused with ErrUnknown, and
// nothing of it survives a restart.
func TestAppendDuringFailedRegistration(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("racing an append against a registration needs two Ps")
	}
	dir := t.TempDir()
	svc := testService(t, fastConfig(19, dir))
	mgr, err := NewManager(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	// A large log whose last record names an unknown patient: Check
	// rejects it only after the dataset is published.
	bad := genLog(t, 19, 3000, 12000)
	records := append(append([]Record(nil), bad.Records...),
		Record{PatientID: "ghost", ExamCode: bad.Exams[0].Code, Date: time.Now()})

	raced := 0
	for attempt := 0; attempt < 20 && raced == 0; attempt++ {
		name := fmt.Sprintf("live-race-%d", attempt)
		done := make(chan struct{})
		appendErr := make(chan error, 1)
		go func() {
			defer close(appendErr)
			for {
				select {
				case <-done:
					return
				default:
				}
				if d, ok := mgr.Get(name); ok {
					_, err := d.Append([]Exam{{Code: "RX"}}, []Patient{{ID: "RP"}},
						[]Record{{PatientID: "RP", ExamCode: "RX", Date: time.Now()}})
					appendErr <- err
					return
				}
			}
		}()
		if _, err := mgr.Register(name, bad.Exams, bad.Patients, records); err == nil {
			t.Fatal("registration with a dangling record accepted")
		}
		close(done)
		err, ok := <-appendErr
		if !ok {
			continue // the append never found the dataset
		}
		raced++
		if !errors.Is(err, ErrUnknown) {
			t.Fatalf("append during a failed registration: err %v, want ErrUnknown", err)
		}
		if _, ok := mgr.Get(name); ok {
			t.Fatalf("%s still registered after its registration failed", name)
		}
	}
	if raced == 0 {
		t.Fatal("no append found a dataset while its registration ran")
	}

	// Nothing was made durable: a restarted manager knows no dataset.
	svcB := testService(t, fastConfig(19, dir))
	mgrB, err := NewManager(Config{Service: svcB})
	if err != nil {
		t.Fatal(err)
	}
	if got := mgrB.Datasets(); len(got) != 0 {
		t.Fatalf("restart resurrected %d datasets: %+v", len(got), got)
	}
}

// TestRecoverLegacyControlRecord: a live_datasets control record in
// the shape older builds wrote, which also carries the retired online
// model's model_revision, centroids and features, is ignored: the
// dataset recovers from its batch without a migration, its baseline is
// the recovered log's descriptor (the K-DB holds none under its name),
// not the record's, its last_analysis is not restored, and the dataset
// keeps taking appends.
func TestRecoverLegacyControlRecord(t *testing.T) {
	dir := t.TempDir()
	svcA := testService(t, fastConfig(23, dir))
	k := svcA.Engine().KDB()
	log := genLog(t, 23, 40, 400)
	if err := k.AppendLiveBatch(kdb.LiveBatch{
		Dataset: "legacy", Revision: 1,
		Exams: log.Exams, Patients: log.Patients, Records: log.Records,
	}); err != nil {
		t.Fatal(err)
	}
	log.Name = "legacy"
	baseline := stats.Characterize(log)
	stale := baseline
	stale.NumPatients *= 2
	raw, err := json.Marshal(map[string]any{
		"_id":            "live:legacy",
		"dataset":        "legacy",
		"revision":       1,
		"model_revision": 1,
		"centroids":      [][]float64{{0.5, 0.25}, {0, 1}},
		"features":       []string{log.Exams[0].Code, log.Exams[1].Code},
		"baseline":       stale,
		"drift":          0.02,
		"last_analysis":  "job-9",
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

	// A second service over the same directory replays the WAL.
	svcB := testService(t, fastConfig(23, dir))
	mgr, err := NewManager(Config{Service: svcB, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := mgr.Get("legacy")
	if !ok {
		t.Fatal("the dataset of a legacy control record did not recover")
	}
	st := d.Status()
	if st.Revision != 1 || st.ModelRevision != 1 || st.NumRecords != len(log.Records) ||
		st.Drift != 0 || st.LastAnalysis != "" {
		t.Fatalf("recovered status = %+v", st)
	}
	d.mu.Lock()
	got := *d.baseline
	d.mu.Unlock()
	if !reflect.DeepEqual(got, baseline) {
		t.Fatalf("recovered baseline has %d patients, want the log's %d, not the control record's %d",
			got.NumPatients, baseline.NumPatients, stale.NumPatients)
	}

	st, err = d.Append(nil, []Patient{{ID: "PL-1", Age: 52}},
		[]Record{{PatientID: "PL-1", ExamCode: log.Exams[0].Code, Date: time.Now()}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Revision != 2 || st.NumRecords != len(log.Records)+1 {
		t.Fatalf("post-recovery append status = %+v", st)
	}
}

// TestManagerCloseLeavesNoGoroutine: a drift-triggered re-analysis is
// watched from a goroutine of its own; once Close returns, that
// goroutine is gone and the count is back at its baseline from before
// NewManager.
func TestManagerCloseLeavesNoGoroutine(t *testing.T) {
	svc := testService(t, fastConfig(5, ""))
	base := runtime.NumGoroutine()
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	first, rest := splitLog(genLog(t, 5, 60, 600), 1)
	if _, err := mgr.Register("live-close", first.exams, first.patients, first.records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("live-close")
	if st, err := d.Append(nil, rest[0].patients, rest[0].records); err != nil || !st.Resweeping {
		t.Fatalf("append did not schedule a resweep: %+v, %v", st, err)
	}
	mgr.Close()
	if st := d.Status(); st.Resweeping {
		t.Fatalf("Close returned with the resweep still watched: %+v", st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Manager.Close (baseline %d)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
