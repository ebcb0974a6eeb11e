package stream

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"adahealth/internal/dataset"
	"adahealth/internal/httpapi"
	"adahealth/internal/service"
	"adahealth/internal/synth"
)

// RegisterRequest is the JSON body of PUT /v1/datasets/{id}: the
// dataset's initial contents, either inline or generated server-side
// (mirroring POST /v1/analyses). Exactly one of Log and Synthetic is
// required, and the initial contents must be a valid non-empty batch.
type RegisterRequest struct {
	// Log is the inline initial examination log.
	Log *dataset.Log `json:"log,omitempty"`
	// Synthetic generates the initial log server-side.
	Synthetic *synth.Config `json:"synthetic,omitempty"`
	// Seed overrides the synthetic generator's seed.
	Seed *int64 `json:"seed,omitempty"`
}

// AppendRequest is the JSON body of POST /v1/datasets/{id}/visits:
// one visit batch — new exam types, new patients, and examination
// records over known or batch-new identities.
type AppendRequest struct {
	Exams    []Exam    `json:"exams,omitempty"`
	Patients []Patient `json:"patients,omitempty"`
	Records  []Record  `json:"records,omitempty"`
}

// Mount registers the live-dataset endpoints on mux:
//
//	PUT  /v1/datasets/{id}        register a live dataset (201 + status; 409 if taken)
//	POST /v1/datasets/{id}/visits append a visit batch (202 + revision; 503 when not durable)
//	GET  /v1/datasets/{id}        live status + drift gauge + last analysis id
//	GET  /v1/datasets/{id}/events live event stream (SSE; model-updated, resweep-scheduled, ...)
//
// The handlers coexist with the job API's GET /v1/datasets/{id}/similar
// (Go 1.22 pattern precedence routes the more specific path).
func Mount(mux *http.ServeMux, mgr *Manager) {
	h := &httpAPI{mgr: mgr}
	mux.HandleFunc("PUT /v1/datasets/{id}", h.register)
	mux.HandleFunc("POST /v1/datasets/{id}/visits", h.append)
	mux.HandleFunc("GET /v1/datasets/{id}", h.status)
	mux.HandleFunc("GET /v1/datasets/{id}/events", h.events)
}

// Handler composes the full daemon API: the job/knowledge endpoints of
// service.NewHandler, with its options (degraded read routing to a
// warm standby, etc.), plus the live-dataset endpoints of Mount, on
// one mux.
func Handler(svc *service.Service, mgr *Manager, opts ...service.HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(svc, opts...))
	Mount(mux, mgr)
	return mux
}

type httpAPI struct {
	mgr *Manager
}

func (h *httpAPI) register(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	// A taken name conflicts whatever the body holds (Register checks
	// again, atomically, for a registration that races this one).
	if _, taken := h.mgr.Get(name); taken {
		httpapi.WriteError(w, http.StatusConflict, fmt.Errorf("%w: %q", ErrExists, name))
		return
	}
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	var req RegisterRequest
	err := dataset.DecodeEnvelope(body.Bytes(), &req, &req.Log)
	body.Release()
	if err != nil && !errors.Is(err, io.EOF) {
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
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("a registration needs log or synthetic"))
		return
	}

	st, err := h.mgr.Register(name, log.Exams, log.Patients, log.Records)
	switch {
	case errors.Is(err, ErrExists):
		httpapi.WriteError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrDurability):
		httpapi.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusCreated, st)
}

func (h *httpAPI) lookup(w http.ResponseWriter, r *http.Request) (*Dataset, bool) {
	d, ok := h.mgr.Get(r.PathValue("id"))
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknown, r.PathValue("id")))
		return nil, false
	}
	return d, true
}

func (h *httpAPI) append(w http.ResponseWriter, r *http.Request) {
	d, ok := h.lookup(w, r)
	if !ok {
		return
	}
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	// An AppendRequest is log-shaped without the name: its rows go
	// through the log decoder.
	var batch dataset.Log
	err := dataset.DecodeBatch(body.Bytes(), &batch)
	body.Release()
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	st, err := d.Append(batch.Exams, batch.Patients, batch.Records)
	switch {
	case errors.Is(err, ErrUnknown):
		httpapi.WriteError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrDurability):
		httpapi.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// 202: the batch is durable and applied to the live VSM and drift
	// gauge, but the full analysis it may have triggered runs
	// asynchronously.
	httpapi.WriteJSON(w, http.StatusAccepted, st)
}

func (h *httpAPI) status(w http.ResponseWriter, r *http.Request) {
	d, ok := h.lookup(w, r)
	if !ok {
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, d.Status())
}

// events streams the live dataset's event feed as Server-Sent Events,
// reusing the job API's SSE loop. Unlike a job stream it does not
// terminate on its own: it follows the dataset until the client
// disconnects.
func (h *httpAPI) events(w http.ResponseWriter, r *http.Request) {
	d, ok := h.lookup(w, r)
	if !ok {
		return
	}
	ch, cancel := d.Subscribe()
	defer cancel()
	service.ServeSSE(w, r, ch)
}
