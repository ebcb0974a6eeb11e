// Package httpapi is the request and response code every HTTP surface
// of the daemon shares: the job API (internal/service), the
// live-dataset routes (internal/stream) and the replication endpoints
// (internal/repl) all answer JSON through WriteJSON and WriteError, and
// the log-bearing routes read their bodies through ReadBody.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the compact JSON body of a code response: one
// line and a newline. It is every JSON answer of the daemon.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the {"error": ...} body every non-2xx JSON
// response carries.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// MaxBodyBytes bounds the body of a log-bearing request (POST
// /v1/analyses, PUT /v1/datasets/{id}, POST /v1/datasets/{id}/visits):
// about twice the JSON of the paper's full 6,380-patient log.
const MaxBodyBytes = 16 << 20

// Body is a request body read by ReadBody into a pooled buffer.
type Body struct {
	buf bytes.Buffer
}

// bodies holds the buffers of released bodies, so a request reuses the
// buffer an earlier one grew instead of allocating its size anew.
var bodies = sync.Pool{New: func() any { return new(Body) }}

// Bytes returns the body. The slice is valid only until Release: keep
// nothing that points into it.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release hands the body's buffer back for reuse. Call it once the
// body is decoded, on every path; b must not be used after.
func (b *Body) Release() {
	b.buf.Reset()
	bodies.Put(b)
}

// ReadBody reads r's whole body into a pooled buffer, refusing one over
// MaxBodyBytes. The caller owns the returned Body and must Release it
// once it has decoded it; its bytes are valid only until then, so what
// the caller keeps must not point into them. On failure ReadBody
// releases the buffer itself, writes the error response — 413 for an
// oversized body, 400 otherwise — and returns false.
func ReadBody(w http.ResponseWriter, r *http.Request) (*Body, bool) {
	if r.ContentLength > MaxBodyBytes {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, MaxBodyBytes))
		return nil, false
	}
	b := bodies.Get().(*Body)
	if r.ContentLength > 0 {
		b.buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		b.Release()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", MaxBodyBytes))
		} else {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		}
		return nil, false
	}
	return b, true
}
