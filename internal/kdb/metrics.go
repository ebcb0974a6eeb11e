package kdb

import "adahealth/internal/obs"

// Circuit-breaker instruments on the default registry (see the
// metric-name reference in package obs). A process holding several
// K-DB handles (tests, the benchmark's leader and standby) shares
// these series: the mode gauge tracks the most recent transition, the
// counters aggregate.
var (
	breakerModeGauge = obs.Default().GaugeVec("kdb_breaker_mode",
		"1 on the active circuit-breaker mode, 0 on the others.", "mode")
	breakerTripsTotal = obs.Default().Counter("kdb_breaker_trips_total",
		"Healthy-to-read-only breaker trips (flush failures past the threshold).")
	droppedWritesTotal = obs.Default().Counter("kdb_dropped_writes_total",
		"Writes refused while the breaker held the store read-only or offline.")
	flushesTotal = obs.Default().CounterVec("kdb_flushes_total",
		"K-DB flush attempts that reached the store, by outcome.", "outcome")
	documentsDecoded = obs.Default().Counter("kdb_documents_decoded_total",
		"Stored K-DB documents decoded into typed values.")
)

// setModeGauge flips the enum gauge to m: one series per mode, the
// active one at 1.
func setModeGauge(m Mode) {
	for _, mode := range []Mode{ModeHealthy, ModeReadOnly, ModeOffline, ModeFollower} {
		v := 0.0
		if mode == m {
			v = 1
		}
		breakerModeGauge.With(string(mode)).Set(v)
	}
}

func flushOutcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
