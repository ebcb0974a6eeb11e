package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/kdb"
	"adahealth/internal/service"
	"adahealth/internal/stats"
	"adahealth/internal/vsm"
)

// Convenience aliases so HTTP request bodies and callers read in the
// streaming layer's vocabulary without a second set of struct types.
type (
	// Exam is a dataset.ExamType catalog entry.
	Exam = dataset.ExamType
	// Patient is a dataset.Patient registry entry.
	Patient = dataset.Patient
	// Record is one dataset.Record examination event.
	Record = dataset.Record
)

// Event types on a live dataset's stream, in the order a typical
// append produces them.
const (
	// EventRegistered: the dataset accepted its revision-1 batch.
	EventRegistered = "registered"
	// EventAppended: a visit batch was durably accepted.
	EventAppended = "appended"
	// EventModelUpdated: the live VSM and the drift gauge reflect the
	// revision. It follows the revision's registered or appended event
	// and precedes any resweep it schedules.
	EventModelUpdated = "model-updated"
	// EventResweepScheduled: descriptor drift crossed the threshold
	// and a full re-analysis was submitted as a service job.
	EventResweepScheduled = "resweep-scheduled"
	// EventResweepComplete: the full re-analysis finished (Err set if
	// it failed) and the drift baseline was derived again.
	EventResweepComplete = "resweep-complete"
)

// Event is one notification on a live dataset's stream. The SSE
// endpoint serves these verbatim, one per message.
type Event struct {
	// Dataset is the emitting live dataset.
	Dataset string `json:"dataset"`
	// Time is when the transition happened.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Revision is the dataset revision the event refers to.
	Revision int `json:"revision"`
	// Drift is the drift gauge at emission time; a revision's
	// model-updated event is the first to carry its new value.
	Drift float64 `json:"drift,omitempty"`
	// JobID is the service job of a resweep event.
	JobID string `json:"job_id,omitempty"`
	// Err carries a resweep failure message.
	Err string `json:"err,omitempty"`
}

// eventHistory bounds how many past events replay to a new subscriber
// (a live dataset's stream never terminates, so unbounded history
// would grow with every append).
const eventHistory = 256

// Dataset is one live dataset: a vsm.Live, which holds the one
// accumulated examination log and its incrementally maintained VSM,
// and the drift gauge that decides when a full re-analysis pays. The
// drift descriptor is stats.Characterize of that log, the function a
// full analysis runs.
type Dataset struct {
	mgr  *Manager
	name string

	mu   sync.Mutex
	live *vsm.Live

	revision int // last durably applied batch revision; 0 until registered

	// baseline is the newest descriptor stored under the dataset's
	// name (see resetBaselineLocked); drift is the current gauge
	// against it.
	baseline     *stats.Descriptor
	drift        float64
	lastAnalysis string // job ID of the last full analysis this process completed

	resweeping bool   // a full re-analysis is queued or running
	resweepJob string // its job ID while in flight

	// events replays the newest eventHistory events to each new
	// subscriber; it is never closed.
	events *service.Feed[Event]
}

// DatasetStatus is a point-in-time snapshot of a live dataset: the
// GET /v1/datasets/{id} body.
type DatasetStatus struct {
	Dataset  string `json:"dataset"`
	Revision int    `json:"revision"`
	// ModelRevision is the revision the live VSM and drift gauge
	// reflect. An append updates both before it returns, so it always
	// equals Revision; it stays for clients that check it.
	ModelRevision int `json:"model_revision"`
	NumPatients   int `json:"num_patients"`
	NumExamTypes  int `json:"num_exam_types"`
	NumRecords    int `json:"num_records"`
	// Drift is the current drift gauge: 1 − descriptor similarity to
	// the last fully analyzed state, compared against Threshold.
	Drift     float64 `json:"drift"`
	Threshold float64 `json:"threshold"`
	// Resweeping is true while a drift-triggered full re-analysis is
	// queued or running as ResweepJob.
	Resweeping bool   `json:"resweeping"`
	ResweepJob string `json:"resweep_job,omitempty"`
	// LastAnalysis is the job ID of the last full analysis this process
	// completed; its Report is served by GET /v1/analyses/{id}/report.
	// Job IDs are per process, so it is not persisted: after a restart
	// it reads "" until the next resweep completes.
	LastAnalysis string `json:"last_analysis,omitempty"`
}

// Status snapshots the dataset.
func (d *Dataset) Status() DatasetStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statusLocked()
}

func (d *Dataset) statusLocked() DatasetStatus {
	l := d.live.Log()
	return DatasetStatus{
		Dataset:       d.name,
		Revision:      d.revision,
		ModelRevision: d.revision,
		NumPatients:   l.NumPatients(),
		NumExamTypes:  l.NumExamTypes(),
		NumRecords:    l.NumRecords(),
		Drift:         d.drift,
		Threshold:     d.mgr.cfg.DriftThreshold,
		Resweeping:    d.resweeping,
		ResweepJob:    d.resweepJob,
		LastAnalysis:  d.lastAnalysis,
	}
}

// Append accepts one visit batch: new exam types, new patients, and
// records over the union of already-known and batch-new identities.
// The batch is checked against the accumulated log (vsm.Live.Check),
// durably recorded in the K-DB in one WAL commit (its ack is the
// acknowledgement's durability point — a failure returns ErrDurability
// and applies nothing), appended to the log with the VSM updated in
// place, and drift-checked. The returned status reflects the
// post-append state.
// A dataset whose registration failed answers ErrUnknown.
func (d *Dataset) Append(exams []Exam, patients []Patient, records []Record) (DatasetStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.revision == 0 {
		return DatasetStatus{}, fmt.Errorf("%w: %q", ErrUnknown, d.name)
	}
	return d.appendLocked(exams, patients, records)
}

func (d *Dataset) appendLocked(exams []Exam, patients []Patient, records []Record) (DatasetStatus, error) {
	t0 := time.Now()
	st, err := d.appendInnerLocked(exams, patients, records)
	switch {
	case err == nil:
		// The VSM and drift update happen synchronously inside the
		// append, so this latency IS append→model-updated.
		appendSeconds.ObserveSince(t0)
		appendsTotal.With("ok").Inc()
	case errors.Is(err, ErrDurability):
		appendsTotal.With("failed").Inc()
	default:
		appendsTotal.With("rejected").Inc()
	}
	return st, err
}

func (d *Dataset) appendInnerLocked(exams []Exam, patients []Patient, records []Record) (DatasetStatus, error) {
	if err := d.live.Check(exams, patients, records); err != nil {
		return DatasetStatus{}, err
	}
	rev := d.revision + 1
	batch := kdb.LiveBatch{Dataset: d.name, Revision: rev, Exams: exams, Patients: patients, Records: records}
	// An append is durable first: the batch is recorded (and WAL-acked)
	// before any in-memory state changes, so a persist failure leaves
	// the dataset exactly as it was and the client retries the whole
	// batch. A registration applies first, so the descriptor of what it
	// applied goes in its batch's commit; if that write fails, Register
	// discards the whole dataset, in-memory state included.
	if rev > 1 {
		if err := d.mgr.kdb.AppendLiveBatch(batch); err != nil {
			return DatasetStatus{}, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	// Check proved the apply must succeed; a failure here is a bug, not
	// an input error.
	if err := d.live.Append(exams, patients, records); err != nil {
		return DatasetStatus{}, fmt.Errorf("stream: applying validated batch %s@%d: %v", d.name, rev, err)
	}
	desc := stats.Characterize(d.live.Log())
	evType := EventAppended
	if rev == 1 {
		if err := d.mgr.kdb.RegisterLiveDataset(desc, batch); err != nil {
			return DatasetStatus{}, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		evType = EventRegistered
		d.resetBaselineLocked(desc)
	}
	d.revision = rev
	d.emitLocked(Event{Type: evType, Revision: rev})
	d.updateDriftLocked(desc)
	d.emitLocked(Event{Type: EventModelUpdated, Revision: rev})
	if d.drift >= d.mgr.cfg.DriftThreshold && !d.resweeping {
		d.scheduleResweepLocked()
	}
	return d.statusLocked(), nil
}

// resetBaselineLocked sets the drift baseline (see the package doc's
// "Durability and the baseline"): the newest descriptor stored under
// the dataset's name, or current, the accumulated log's own, when the
// K-DB holds none or cannot be read. Then it re-measures drift.
func (d *Dataset) resetBaselineLocked(current stats.Descriptor) {
	base, _, ok := d.mgr.kdb.LatestDescriptor(d.name)
	if !ok {
		base = current
	}
	d.baseline = &base
	d.updateDriftLocked(current)
}

// updateDriftLocked measures current, the accumulated log's
// descriptor, against the baseline.
func (d *Dataset) updateDriftLocked(current stats.Descriptor) {
	d.drift = 1 - kdb.DescriptorSimilarity(*d.baseline, current)
	driftGauge.With(d.name).Set(d.drift)
}

// scheduleResweepLocked submits a full re-analysis of a snapshot of
// the accumulated log as an ordinary service job, whose only warm
// start is the pipeline's recall stage. Submission failures (queue
// full, degraded) are soft: the drift persists, so the next append
// retries.
//
// The snapshot shares the log's rows: vsm.Live only ever appends to
// them, and capping each slice at its length makes a later append
// reallocate or write past the snapshot's end, never into it.
func (d *Dataset) scheduleResweepLocked() {
	l := d.live.Log()
	snapshot := &dataset.Log{
		Name:     d.name,
		Exams:    l.Exams[:len(l.Exams):len(l.Exams)],
		Patients: l.Patients[:len(l.Patients):len(l.Patients)],
		Records:  l.Records[:len(l.Records):len(l.Records)],
	}
	j, err := d.mgr.svc.Submit(context.Background(), snapshot,
		service.WithLabels(map[string]string{
			"stream":   "resweep",
			"dataset":  d.name,
			"revision": fmt.Sprintf("%d", d.revision),
		}),
	)
	if err != nil {
		return
	}
	d.resweeping = true
	d.resweepJob = j.ID()
	resweepsTotal.With("scheduled").Inc()
	d.emitLocked(Event{Type: EventResweepScheduled, Revision: d.revision, JobID: j.ID()})
	d.mgr.watchers.Add(1)
	go func() {
		defer d.mgr.watchers.Done()
		d.watchResweep(j)
	}()
}

// watchResweep waits for a drift-triggered job and folds its outcome
// back into the live state: whether it succeeded or failed, the
// baseline is derived again (so after a success drift re-measures
// movement since this analysis), and a success updates the
// last-analysis pointer.
func (d *Dataset) watchResweep(j *service.Job) {
	_, err := j.Wait(context.Background())
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resweeping = false
	d.resweepJob = ""
	d.resetBaselineLocked(stats.Characterize(d.live.Log()))
	ev := Event{Type: EventResweepComplete, Revision: d.revision, JobID: j.ID()}
	if err != nil {
		ev.Err = err.Error()
		resweepsTotal.With("failed").Inc()
	} else {
		resweepsTotal.With("completed").Inc()
		d.lastAnalysis = j.ID()
	}
	d.emitLocked(ev)
}

// Subscribe returns an independent event stream plus its cancel
// function (see service.Feed): the newest eventHistory events replay
// first. Unlike a Job's stream, a live dataset's never terminates: the
// channel closes only when cancel is called.
func (d *Dataset) Subscribe() (<-chan Event, func()) { return d.events.Subscribe() }

// emitLocked stamps ev and publishes it; holding d.mu keeps the
// stream in the order the dataset changed.
func (d *Dataset) emitLocked(ev Event) {
	ev.Dataset = d.name
	ev.Time = time.Now()
	if ev.Drift == 0 {
		ev.Drift = d.drift
	}
	d.events.Publish(ev)
}
