package service

import (
	"encoding/json"
	"io"
	"time"

	"adahealth/internal/core"
)

// TraceDump is the stage-schedule encoding shared by the daemon's
// status endpoint and `adahealth -trace out.json`: the per-stage
// [start, end) intervals of one analysis, ready for offline
// flame-style inspection of the DAG schedule (overlapping intervals
// are the stages that actually ran concurrently).
type TraceDump struct {
	Dataset          string            `json:"dataset"`
	StageConcurrency int               `json:"stage_concurrency"`
	Stages           []core.StageTrace `json:"stages"`
}

// NewTraceDump projects a report's execution telemetry.
func NewTraceDump(rep *core.Report) TraceDump {
	d := TraceDump{
		StageConcurrency: rep.StageConcurrency,
		Stages:           rep.Stages,
	}
	if len(rep.Stages) > 0 {
		d.Dataset = rep.Stages[0].Dataset
	}
	return d
}

// WriteTrace writes the indented JSON trace dump of one report.
func WriteTrace(w io.Writer, rep *core.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewTraceDump(rep))
}

// JobState is the wire form of one job's status — what
// GET /v1/analyses/{id} returns and what the CLI decodes.
type JobState struct {
	ID         string            `json:"id"`
	Status     Status            `json:"status"`
	Priority   int               `json:"priority,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	QueuedAt   time.Time         `json:"queued_at"`
	StartedAt  *time.Time        `json:"started_at,omitempty"`
	FinishedAt *time.Time        `json:"finished_at,omitempty"`
	Error      string            `json:"error,omitempty"`
	// Events is the full progress history (lifecycle transitions and
	// per-stage start/finish), in emission order.
	Events []StageEvent `json:"events"`
	// Trace carries the finished analysis's stage schedule in the same
	// encoding `adahealth -trace` dumps; nil until the job is done.
	Trace *TraceDump `json:"trace,omitempty"`
}

// State snapshots a job into its wire form. All mutable fields come
// from one locked snapshot, so a job finishing mid-request can never
// yield a payload whose status contradicts its error or trace.
func (j *Job) State() JobState {
	snap := j.snapshot()
	st := JobState{
		ID:       j.ID(),
		Status:   snap.status,
		Priority: j.Priority(),
		Labels:   j.Labels(),
		QueuedAt: snap.queuedAt,
		Events:   snap.progress,
	}
	if !snap.startedAt.IsZero() {
		started := snap.startedAt
		st.StartedAt = &started
	}
	if !snap.finish.IsZero() {
		finished := snap.finish
		st.FinishedAt = &finished
	}
	if snap.err != nil {
		st.Error = snap.err.Error()
	}
	if snap.report != nil {
		dump := NewTraceDump(snap.report)
		st.Trace = &dump
	}
	return st
}
