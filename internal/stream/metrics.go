package stream

import "adahealth/internal/obs"

// Streaming-ingestion instruments on the default registry (see the
// metric-name reference in package obs). The drift gauge is labeled by
// dataset name — live datasets are registered deliberately, so the
// cardinality is operator-bounded.
var (
	appendSeconds = obs.Default().Histogram("stream_append_seconds",
		"Append acceptance through model update, in seconds (durable ack, in-place VSM apply, drift check).", nil)
	appendsTotal = obs.Default().CounterVec("stream_appends_total",
		"Live visit-batch appends by outcome.", "outcome")
	driftGauge = obs.Default().GaugeVec("stream_drift",
		"Drift gauge per live dataset: 1 - descriptor similarity to the last fully analyzed state.", "dataset")
	resweepsTotal = obs.Default().CounterVec("stream_resweeps_total",
		"Drift-triggered full re-analyses by lifecycle event.", "event")
)
