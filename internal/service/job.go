package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
)

// Status is a job's position in its lifecycle.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker slot.
	StatusQueued Status = "queued"
	// StatusRunning: executing on the shared stage pool.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; the report is available.
	StatusDone Status = "done"
	// StatusFailed: finished with an error (including an expired
	// deadline, which surfaces as context.DeadlineExceeded).
	StatusFailed Status = "failed"
	// StatusCancelled: cancelled via Cancel, a DELETE, or service
	// shutdown before completing.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether a job in this status has stopped moving.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// StageEvent is one progress notification of a job: either a job
// lifecycle transition (Stage == "", Phase is a Status string) or a
// per-stage start/finish fed live from the scheduler's trace points
// (Stage set, Phase "start" or "finish"). The stream for a typical
// analysis reads: queued, running, then start/finish pairs for each
// DAG stage, then the terminal status.
type StageEvent struct {
	// JobID is the emitting job.
	JobID string `json:"job_id"`
	// Time is when the transition happened.
	Time time.Time `json:"time"`
	// Stage is the pipeline stage name ("" for lifecycle events).
	Stage string `json:"stage,omitempty"`
	// Phase is "start"/"finish" for stage events, or the new Status
	// for lifecycle events.
	Phase string `json:"phase"`
	// Err carries a stage's failure message on finish.
	Err string `json:"err,omitempty"`
}

// Job is the handle of one submitted analysis. Handles are returned by
// Service.Submit before the work runs; all methods are safe for
// concurrent use.
type Job struct {
	id       string
	seq      uint64
	priority int
	labels   map[string]string
	// log is what the job analyzes; finish drops it, so a finished job
	// kept for lookup does not keep its log's rows and encoding alive.
	log      *dataset.Log
	engine   *core.Engine // base engine, or a per-job WithConfig derivation
	deadline time.Time    // zero = none

	ctx    context.Context
	cancel context.CancelFunc

	heapIdx int // position in the admission heap; -1 once dispatched or reaped

	mu         sync.Mutex
	status     Status
	report     *core.Report
	err        error
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time

	// feed holds the job's event history and fans it out; it closes
	// after the terminal event. events is the subscription taken at
	// admission, which Events returns.
	feed   *Feed[StageEvent]
	events <-chan StageEvent
	done   chan struct{}
}

// ID returns the job's service-unique identifier.
func (j *Job) ID() string { return j.id }

// Priority returns the submission priority (higher dispatches first).
func (j *Job) Priority() int { return j.priority }

// Labels returns a copy of the job's labels.
func (j *Job) Labels() map[string]string {
	if len(j.labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(j.labels))
	for k, v := range j.labels {
		out[k] = v
	}
	return out
}

// Status returns the job's current lifecycle status.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the job's terminal error (nil while non-terminal or on
// success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Report returns the finished report, or (nil, false) until the job is
// done.
func (j *Job) Report() (*core.Report, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.report != nil
}

// Wait blocks until the job reaches a terminal status or ctx is done.
// On completion it returns the same (*Report, error) the equivalent
// Engine.Analyze call would have: in particular a job whose deadline
// expired returns context.DeadlineExceeded and a cancelled job returns
// context.Canceled (both errors.Is-matchable). A ctx error means the
// wait gave up, not that the job stopped.
func (j *Job) Wait(ctx context.Context) (*core.Report, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.report, j.err
	}
}

// Cancel asks the job to stop: a queued job is reaped immediately, a
// running one stops at its next cancellation checkpoint. Cancel is
// idempotent and a no-op on terminal jobs.
func (j *Job) Cancel() { j.cancel() }

// Events returns the job's progress stream: the subscription taken at
// admission, so every call returns the same channel. It receives
// lifecycle and per-stage StageEvents in order and is closed exactly
// once, after the terminal event, so `for range job.Events()` drains
// cleanly. Events are delivered best-effort: a consumer that stops
// receiving loses events rather than stalling the pipeline.
func (j *Job) Events() <-chan StageEvent { return j.events }

// Subscribe returns an independent event stream plus its cancel
// function (see Feed.Subscribe): every event emitted so far replays
// first, and the channel closes after the terminal event, so any
// number of consumers (the SSE endpoint serves one per request) each
// drain a complete stream without competing for Events.
func (j *Job) Subscribe() (<-chan StageEvent, func()) { return j.feed.Subscribe() }

// emitLifecycle publishes a status-transition event.
func (j *Job) emitLifecycle(s Status, at time.Time) {
	j.feed.Publish(StageEvent{JobID: j.id, Time: at, Phase: string(s)})
}

// observeStage adapts the scheduler's StageObserver callback into the
// job's event stream.
func (j *Job) observeStage(ev core.StageEvent) {
	j.feed.Publish(StageEvent{
		JobID: j.id,
		Time:  ev.Time,
		Stage: ev.Stage,
		Phase: string(ev.Phase),
		Err:   ev.Err,
	})
}

// setRunning transitions queued → running.
func (j *Job) setRunning() {
	now := time.Now()
	j.mu.Lock()
	j.status = StatusRunning
	j.startedAt = now
	j.mu.Unlock()
	j.emitLifecycle(StatusRunning, now)
}

// finish records the terminal outcome, emits the terminal lifecycle
// event, closes the event stream (exactly once) and releases waiters.
// The first finish wins; later calls are no-ops, so reapQueued and a
// worker racing on the same job cannot double-close.
func (j *Job) finish(rep *core.Report, err error) {
	now := time.Now()
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.report = rep
	j.err = err
	j.finishedAt = now
	j.log = nil
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled):
		j.status = StatusCancelled
	default:
		j.status = StatusFailed
	}
	status := j.status
	j.mu.Unlock()

	recordTerminalMetrics(j, status, now)
	j.emitLifecycle(status, now)
	j.feed.Close()

	close(j.done)
	j.cancel() // release the deadline timer; ctx's reap finds the job dequeued
}
