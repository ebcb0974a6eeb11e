package service

import (
	"time"

	"adahealth/internal/obs"
)

// Service instruments on the default registry (see the metric-name
// reference in package obs). The core_stage_* series are the
// scheduler's own (package core); the service adds only the job-level
// panics safeRun recovers, under stage="job" in core_stage_panics_total.
// Queue/worker gauges bind per Service in NewWithEngine; latest service
// wins when a process holds several.
var (
	admissionsTotal = obs.Default().CounterVec("service_admissions_total",
		"Submission admissions by outcome.", "outcome")
	jobsTotal = obs.Default().CounterVec("service_jobs_total",
		"Jobs reaching a terminal state.", "state")
	jobDurationSeconds = obs.Default().HistogramVec("service_job_duration_seconds",
		"Admission-to-terminal latency by priority class (interactive >= 10, standard 1..9, batch <= 0).",
		nil, "class")

	// stagePanicsTotal is the family package core registers; obs hands
	// back the same one.
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

// recordTerminalMetrics counts a job's terminal outcome: state and
// class latency.
func recordTerminalMetrics(j *Job, status Status, finished time.Time) {
	jobsTotal.With(string(status)).Inc()
	jobDurationSeconds.With(priorityClass(j.priority)).Observe(finished.Sub(j.queuedAt).Seconds())
}
