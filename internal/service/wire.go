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

// State snapshots a job into its wire form. Status, error, times and
// trace come from one locked read, so a job finishing mid-request can
// never yield a payload whose status contradicts its error or trace.
// The events are read first: a transition sets the status before it
// publishes its event, so State never lists an event, the terminal
// one included, of a status it does not show yet.
func (j *Job) State() JobState {
	events := j.feed.History()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobState{
		ID:       j.ID(),
		Status:   j.status,
		Priority: j.Priority(),
		Labels:   j.Labels(),
		QueuedAt: j.queuedAt,
		Events:   events,
	}
	if !j.startedAt.IsZero() {
		started := j.startedAt
		st.StartedAt = &started
	}
	if !j.finishedAt.IsZero() {
		finished := j.finishedAt
		st.FinishedAt = &finished
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.report != nil {
		dump := NewTraceDump(j.report)
		st.Trace = &dump
	}
	return st
}
