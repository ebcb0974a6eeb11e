package service

import (
	"errors"
	"strings"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/obs"
)

// Service and core-stage instruments on the default registry (see the
// metric-name reference in package obs). The stage series are fed from
// the scheduler's existing StageEvent observer seam — the scheduler
// itself is untouched. Queue/worker gauges bind per Service in
// NewWithEngine; latest service wins when a process holds several.
var (
	admissionsTotal = obs.Default().CounterVec("service_admissions_total",
		"Submission admissions by outcome.", "outcome")
	jobsTotal = obs.Default().CounterVec("service_jobs_total",
		"Jobs reaching a terminal state.", "state")
	jobDurationSeconds = obs.Default().HistogramVec("service_job_duration_seconds",
		"Admission-to-terminal latency by priority class (interactive >= 10, standard 1..9, batch <= 0).",
		nil, "class")

	stageSeconds = obs.Default().HistogramVec("core_stage_seconds",
		"Per-stage wall latency from the scheduler's start/finish trace points.", nil, "stage")
	stageTotal = obs.Default().CounterVec("core_stage_total",
		"Stage executions by outcome.", "stage", "outcome")
	stagePanicsTotal = obs.Default().CounterVec("core_stage_panics_total",
		"Recovered stage panics isolated to their analysis.", "stage")
)

// priorityClass buckets a job priority into a bounded label set.
func priorityClass(p int) string {
	switch {
	case p >= 10:
		return "interactive"
	case p >= 1:
		return "standard"
	default:
		return "batch"
	}
}

// bindServiceGauges points the pull gauges at s. Gauges rather than
// counters: depth and occupancy are instantaneous, so the scrape reads
// the live value instead of reconstructing it from event deltas.
func (s *Service) bindServiceGauges() {
	obs.Default().GaugeFunc("service_queue_depth",
		"Jobs admitted and waiting for a worker slot.",
		func() float64 { return float64(s.Stats().Queued) })
	obs.Default().GaugeFunc("service_workers_running",
		"Jobs executing on the shared stage pool right now.",
		func() float64 { return float64(s.Stats().Running) })
	obs.Default().GaugeFunc("service_workers",
		"Configured worker (dispatch slot) count.",
		func() float64 { return float64(s.cfg.Workers) })
}

// recordStageMetrics folds one scheduler trace point into the core
// stage series: start events stamp t0, finish events observe the
// latency and count the outcome.
func (j *Job) recordStageMetrics(ev core.StageEvent) {
	switch ev.Phase {
	case core.StageStart:
		j.mu.Lock()
		if j.stageStarts == nil {
			j.stageStarts = make(map[string]time.Time)
		}
		j.stageStarts[ev.Stage] = ev.Time
		j.mu.Unlock()
	case core.StageFinish:
		j.mu.Lock()
		t0, ok := j.stageStarts[ev.Stage]
		delete(j.stageStarts, ev.Stage)
		j.mu.Unlock()
		if ok {
			stageSeconds.With(ev.Stage).Observe(ev.Time.Sub(t0).Seconds())
		}
		outcome := "ok"
		if ev.Err != "" {
			outcome = "error"
		}
		stageTotal.With(ev.Stage, outcome).Inc()
	}
}

// recordTerminalMetrics counts a job's terminal outcome: state and
// class latency always; panics from the error chain.
func recordTerminalMetrics(j *Job, status Status, err error, finished time.Time) {
	jobsTotal.With(string(status)).Inc()
	jobDurationSeconds.With(priorityClass(j.priority)).Observe(finished.Sub(j.queuedAt).Seconds())
	var pe *core.PanicError
	if errors.As(err, &pe) {
		stage := pe.Stage
		// safeRun labels job-level panics "job <id>"; collapse the
		// unbounded ID into one series.
		if strings.HasPrefix(stage, "job ") {
			stage = "job"
		}
		stagePanicsTotal.With(stage).Inc()
	}
}
