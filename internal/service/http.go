package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/httpapi"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/obs"
	"adahealth/internal/synth"
)

// SubmitRequest is the JSON body of POST /v1/analyses. Exactly one of
// Log (an inline examination log) or Synthetic (a generator
// configuration for the built-in synthetic diabetic-log generator)
// selects the data source.
type SubmitRequest struct {
	// Name overrides the log's dataset name.
	Name string `json:"name,omitempty"`
	// Log is an inline examination log (exams, patients, records).
	Log *dataset.Log `json:"log,omitempty"`
	// Synthetic generates the log server-side (tests, demos, load).
	Synthetic *synth.Config `json:"synthetic,omitempty"`
	// Seed overrides the analysis seed (WithSeed).
	Seed *int64 `json:"seed,omitempty"`
	// Priority sets the dispatch priority (WithPriority).
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the job's lifetime, queue wait included, in
	// milliseconds from admission (WithDeadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Labels attaches caller metadata (WithLabels).
	Labels map[string]string `json:"labels,omitempty"`
	// Config analyzes under a full per-job configuration override
	// (WithConfigOverride), validated at admission.
	Config *core.Config `json:"config,omitempty"`
}

// SubmitResponse is the 202 body of POST /v1/analyses.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// NewHandler returns the daemon's HTTP API over svc:
//
//	POST   /v1/analyses              submit (202 + job id; 429 when the queue is full)
//	GET    /v1/analyses/{id}         status + live stage progress
//	GET    /v1/analyses/{id}/report  finished report (409 until done)
//	GET    /v1/analyses/{id}/events  live progress stream (Server-Sent Events)
//	DELETE /v1/analyses/{id}         cancel (202)
//	GET    /v1/knowledge             K-DB knowledge items (?dataset=, ?metric=, ?limit=)
//	GET    /v1/datasets/{id}/similar datasets similar to {id}'s newest descriptor (?limit=; 404 if none)
//	GET    /healthz                  liveness + queue/worker/K-DB gauges
//
// Every response is compact JSON (httpapi.WriteJSON) except the SSE
// stream, the HTML trace view and /metrics. opts, at most one,
// configures the optional behaviours; none selects the zero
// HandlerOptions. The handler is safe for concurrent use.
func NewHandler(svc *Service, opts ...HandlerOptions) http.Handler {
	var o HandlerOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	_, mux := newAPI(svc, o)
	return mux
}

// HandlerOptions configures the optional behaviours of the daemon API.
type HandlerOptions struct {
	// ReadFallback is the base URL of a warm standby (a replication
	// follower, cmd/adahealthd -follow). When set and the K-DB breaker
	// is degraded (read-only or offline), the knowledge read endpoints
	// — GET /v1/knowledge and GET /v1/datasets/{id}/similar — proxy to
	// the standby instead of failing, with StaleHeader naming the
	// leader's mode so callers know the answer may trail the leader's
	// durable state. A proxy failure falls back to the local attempt.
	ReadFallback string
}

// StaleHeader marks a knowledge response served via the degraded read
// fallback; its value is the leader K-DB's breaker mode at proxy time.
const StaleHeader = "X-Adahealth-Stale"

func newAPI(svc *Service, opts HandlerOptions) (*httpAPI, http.Handler) {
	h := &httpAPI{
		svc:      svc,
		fallback: opts.ReadFallback,
		proxy:    &http.Client{Timeout: 10 * time.Second},
		mode:     func() kdb.Mode { return svc.Engine().KDB().Health().Mode },
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyses", h.submit)
	mux.HandleFunc("GET /v1/analyses/{id}", h.status)
	mux.HandleFunc("GET /v1/analyses/{id}/report", h.report)
	mux.HandleFunc("GET /v1/analyses/{id}/events", h.events)
	mux.HandleFunc("GET /v1/analyses/{id}/trace.html", h.traceHTML)
	mux.HandleFunc("DELETE /v1/analyses/{id}", h.cancel)
	mux.HandleFunc("GET /v1/knowledge", h.knowledge)
	mux.HandleFunc("GET /v1/datasets/{id}/similar", h.similar)
	mux.HandleFunc("GET /healthz", h.health)
	mux.Handle("GET /metrics", obs.Default().Handler())
	return h, mux
}

type httpAPI struct {
	svc      *Service
	fallback string
	proxy    *http.Client
	// mode probes the K-DB breaker; a func so tests can force a
	// degraded mode without breaking a real store.
	mode func() kdb.Mode
}

func (h *httpAPI) submit(w http.ResponseWriter, r *http.Request) {
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	// The log member goes through the log decoder, the rest of the
	// request through encoding/json; admission encodes the log. Neither
	// decoder keeps a pointer into the body, so its buffer goes back at
	// once.
	var req SubmitRequest
	err := dataset.DecodeEnvelope(body.Bytes(), &req, &req.Log)
	body.Release()
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}

	var log *dataset.Log
	switch {
	case req.Log != nil && req.Synthetic != nil:
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("pass either log or synthetic, not both"))
		return
	case req.Log != nil:
		log = req.Log
	case req.Synthetic != nil:
		cfg := *req.Synthetic
		if req.Seed != nil {
			cfg.Seed = *req.Seed
		}
		log, err = synth.Generate(cfg)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("generating synthetic log: %w", err))
			return
		}
	default:
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("pass a log or a synthetic generator config"))
		return
	}
	if req.Name != "" {
		log.Name = req.Name
	}

	var opts []Option
	if req.Priority != 0 {
		opts = append(opts, WithPriority(req.Priority))
	}
	if req.DeadlineMS > 0 {
		opts = append(opts, WithDeadline(time.Now().Add(time.Duration(req.DeadlineMS)*time.Millisecond)))
	}
	if len(req.Labels) > 0 {
		opts = append(opts, WithLabels(req.Labels))
	}
	if req.Config != nil {
		opts = append(opts, WithConfigOverride(*req.Config))
	}
	if req.Seed != nil {
		opts = append(opts, WithSeed(*req.Seed))
	}

	job, err := h.svc.Submit(r.Context(), log, opts...)
	switch {
	case errors.Is(err, ErrQueueFull):
		httpapi.WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDegraded):
		httpapi.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: job.ID(), Status: job.Status()})
}

func (h *httpAPI) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := h.svc.Job(r.PathValue("id"))
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return nil, false
	}
	return job, true
}

func (h *httpAPI) status(w http.ResponseWriter, r *http.Request) {
	job, ok := h.lookup(w, r)
	if !ok {
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, job.State())
}

func (h *httpAPI) report(w http.ResponseWriter, r *http.Request) {
	job, ok := h.lookup(w, r)
	if !ok {
		return
	}
	rep, done := job.Report()
	if !done {
		status := job.Status()
		if status.Terminal() {
			// Failed or cancelled: there is no report to serve.
			httpapi.WriteError(w, http.StatusConflict,
				fmt.Errorf("job %s is %s: %v", job.ID(), status, job.Err()))
			return
		}
		httpapi.WriteError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; report not ready", job.ID(), status))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, rep)
}

// traceHTML renders a finished job's stage schedule as the HTML Gantt
// view — the same TraceDump the JSON status embeds, drawn instead of
// dumped. 409 until the report exists, mirroring the report endpoint.
func (h *httpAPI) traceHTML(w http.ResponseWriter, r *http.Request) {
	job, ok := h.lookup(w, r)
	if !ok {
		return
	}
	rep, done := job.Report()
	if !done {
		status := job.Status()
		if status.Terminal() {
			httpapi.WriteError(w, http.StatusConflict,
				fmt.Errorf("job %s is %s: %v", job.ID(), status, job.Err()))
			return
		}
		httpapi.WriteError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; trace not ready", job.ID(), status))
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = WriteTraceHTML(w, NewTraceDump(rep))
}

func (h *httpAPI) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := h.lookup(w, r)
	if !ok {
		return
	}
	job.Cancel()
	httpapi.WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: job.ID(), Status: job.Status()})
}

// events streams a job's progress as Server-Sent Events: every event
// emitted so far replays first, live events follow, and the stream
// closes after the terminal event — so `curl -N .../events` follows an
// analysis to completion and then returns (the ROADMAP's poll-only gap
// closed). Each SSE message is one StageEvent as `data: {json}`.
func (h *httpAPI) events(w http.ResponseWriter, r *http.Request) {
	job, ok := h.lookup(w, r)
	if !ok {
		return
	}
	ch, cancel := job.Subscribe()
	defer cancel()
	ServeSSE(w, r, ch)
}

// knowledgeResponse is the body of GET /v1/knowledge.
type knowledgeResponse struct {
	Dataset string           `json:"dataset,omitempty"`
	Metric  string           `json:"metric,omitempty"`
	Count   int              `json:"count"`
	Items   []knowledge.Item `json:"items"`
}

// knowledge serves K-DB knowledge items: all items of ?dataset= (every
// dataset when omitted), optionally ranked by ?metric= (support,
// confidence, lift, size, ...; items lacking the metric are excluded)
// and truncated to ?limit= (default 50). On a degraded K-DB the
// request routes to the read fallback when one is configured.
func (h *httpAPI) knowledge(w http.ResponseWriter, r *http.Request) {
	if h.proxyDegraded(w, r) {
		return
	}
	serveKnowledge(w, r, h.svc.Engine().KDB())
}

func serveKnowledge(w http.ResponseWriter, r *http.Request, kb *kdb.KDB) {
	q := r.URL.Query()
	limit, err := intParam(q.Get("limit"), 50)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var items []knowledge.Item
	if metric := q.Get("metric"); metric != "" {
		items, err = kb.TopKnowledge(q.Get("dataset"), metric, limit)
	} else {
		items, err = kb.KnowledgeItems(q.Get("dataset"), limit)
	}
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if items == nil {
		items = []knowledge.Item{}
	}
	httpapi.WriteJSON(w, http.StatusOK, knowledgeResponse{
		Dataset: q.Get("dataset"),
		Metric:  q.Get("metric"),
		Count:   len(items),
		Items:   items,
	})
}

// proxyDegraded reroutes a knowledge read to the configured fallback
// when the local K-DB breaker is degraded. It reports whether the
// response was served; a proxy failure returns false so the caller
// falls through to the local attempt (the local store may still answer
// — read-only mode serves reads).
func (h *httpAPI) proxyDegraded(w http.ResponseWriter, r *http.Request) bool {
	if h.fallback == "" {
		return false
	}
	mode := h.mode()
	if mode == kdb.ModeHealthy || mode == kdb.ModeFollower {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		strings.TrimSuffix(h.fallback, "/")+r.URL.RequestURI(), nil)
	if err != nil {
		return false
	}
	resp, err := h.proxy.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(StaleHeader, string(mode))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// NewKnowledgeHandler serves only the K-DB read endpoints — GET
// /v1/knowledge and GET /v1/datasets/{id}/similar — straight from kb.
// It is the read surface a replication follower exposes
// (internal/repl.NewFollowerHandler), identical in shape to the
// leader's endpoints so the degraded read routing can proxy verbatim.
func NewKnowledgeHandler(kb *kdb.KDB) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/knowledge", func(w http.ResponseWriter, r *http.Request) {
		serveKnowledge(w, r, kb)
	})
	mux.HandleFunc("GET /v1/datasets/{id}/similar", func(w http.ResponseWriter, r *http.Request) {
		serveSimilar(w, r, kb)
	})
	return mux
}

// similarResponse is the body of GET /v1/datasets/{id}/similar.
type similarResponse struct {
	Dataset string                  `json:"dataset"`
	Similar []kdb.DatasetSimilarity `json:"similar"`
}

// similar ranks the K-DB's other datasets by descriptor similarity to
// {id} — the recall stage's retrieval path exposed for navigation
// ("which of our historical cohorts does this one resemble?"). On a
// degraded K-DB the request routes to the read fallback when one is
// configured.
func (h *httpAPI) similar(w http.ResponseWriter, r *http.Request) {
	if h.proxyDegraded(w, r) {
		return
	}
	serveSimilar(w, r, h.svc.Engine().KDB())
}

func serveSimilar(w http.ResponseWriter, r *http.Request, kb *kdb.KDB) {
	name := r.PathValue("id")
	limit, err := intParam(r.URL.Query().Get("limit"), 10)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	desc, _, ok := kb.LatestDescriptor(name)
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("no descriptor stored for dataset %q", name))
		return
	}
	hits, err := kb.SimilarDatasets(desc, "", 0)
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	// The dataset always matches itself; the endpoint answers "which
	// other datasets", so drop it.
	out := make([]kdb.DatasetSimilarity, 0, len(hits))
	for _, hit := range hits {
		if hit.Dataset == name {
			continue
		}
		out = append(out, hit)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, similarResponse{Dataset: name, Similar: out})
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q", s)
	}
	return n, nil
}

// health serves GET /healthz: ok, degraded (still 200 — the process
// serves, load balancers must not kill a pod that is merely shedding
// durability), or failing (503, stop routing here). Reasons name each
// degrading condition; the queue/worker/K-DB gauges ride along.
func (h *httpAPI) health(w http.ResponseWriter, r *http.Request) {
	health := h.svc.Health()
	code := http.StatusOK
	if health.Status == HealthFailing {
		code = http.StatusServiceUnavailable
	}
	kb := h.svc.Engine().KDB()
	httpapi.WriteJSON(w, code, struct {
		Health
		Stats
		// KDBCounts is the per-collection document count and
		// KDBWALBytes the un-compacted write-ahead-log size — the
		// persistence layer's health gauges.
		KDBCounts   map[string]int `json:"kdb_counts"`
		KDBWALBytes int64          `json:"kdb_wal_bytes"`
		// Build identifies the binary; UptimeSeconds its age.
		Build         BuildInfo `json:"build"`
		UptimeSeconds float64   `json:"uptime_seconds"`
	}{Health: health, Stats: h.svc.Stats(), KDBCounts: kb.Counts(), KDBWALBytes: kb.Store().WALSize(),
		Build: Build(), UptimeSeconds: UptimeSeconds()})
}
