package repl

import (
	"net/http"

	"adahealth/internal/httpapi"
	"adahealth/internal/kdb"
	"adahealth/internal/obs"
	"adahealth/internal/service"
)

// NewFollowerHandler is the warm standby's HTTP surface: the K-DB read
// endpoints served from the replicated store — identical in shape to
// the leader's, so the leader's degraded read routing proxies verbatim
// — plus a /healthz carrying the replication lag gauges.
//
//	GET /v1/knowledge                 knowledge items from the replica
//	GET /v1/datasets/{id}/similar     descriptor similarity from the replica
//	GET /healthz                      follower mode + lag gauges + build info
//	GET /metrics                      Prometheus exposition (repl_* and kdb_* series)
//
// kb must wrap f.Store() (kdb.Follower).
func NewFollowerHandler(f *Follower, kb *kdb.KDB) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewKnowledgeHandler(kb))
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, struct {
			Role string     `json:"role"`
			Mode kdb.Mode   `json:"mode"`
			Lag  Lag        `json:"replication"`
			KDB  kdb.Health `json:"kdb"`
			// Build identifies the binary; UptimeSeconds its age —
			// the same pair the leader's /healthz carries.
			Build         service.BuildInfo `json:"build"`
			UptimeSeconds float64           `json:"uptime_seconds"`
		}{
			Role:          "follower",
			Mode:          kb.Health().Mode,
			Lag:           f.Lag(),
			KDB:           kb.Health(),
			Build:         service.Build(),
			UptimeSeconds: service.UptimeSeconds(),
		})
	})
	return mux
}
