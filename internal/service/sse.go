package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"adahealth/internal/httpapi"
)

// feedBuffer is a subscription's channel headroom past its replay: a
// job's pipeline emits ~20 stage events plus a handful of lifecycle
// transitions, so a reasonably prompt consumer never loses an event,
// and a stalled one loses the newest rather than blocking the
// publisher.
const feedBuffer = 64

// Feed is the one replaying event fan-out, behind both event streams
// the daemon serves: a job's progress (unbounded history, closed after
// the terminal event) and a live dataset's notifications (the newest
// events only, never closed). Publish records an event in the history
// and sends it to every subscriber without blocking; a subscriber
// first receives the history, then live events in publish order.
// Close ends the feed once: every subscription closes after the events
// published before it, later publishes are dropped, and a later
// subscriber gets the history on a closed channel. A Feed is safe for
// concurrent use.
type Feed[E any] struct {
	limit int // history bound; 0 keeps every event

	mu      sync.Mutex
	history []E
	subs    []chan E
	closed  bool
}

// NewFeed returns an open feed whose history keeps the newest limit
// events (every event when limit is 0).
func NewFeed[E any](limit int) *Feed[E] { return &Feed[E]{limit: limit} }

// Publish records ev and sends it to every subscriber, dropping it for
// a subscriber whose channel is full. It is a no-op once the feed is
// closed.
func (f *Feed[E]) Publish(ev E) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.history = append(f.history, ev)
	if f.limit > 0 && len(f.history) > f.limit {
		f.history = append(f.history[:0], f.history[len(f.history)-f.limit:]...)
	}
	for _, sub := range f.subs {
		select {
		case sub <- ev:
		default:
		}
	}
}

// Subscribe returns an independent event stream plus its cancel
// function: the history replays first, live events follow in order,
// and the channel closes when the feed does. Cancel releases the
// subscription early (idempotent; the channel is then closed).
func (f *Feed[E]) Subscribe() (<-chan E, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan E, len(f.history)+feedBuffer)
	for _, ev := range f.history {
		ch <- ev // fits: the channel is sized for the replay
	}
	if f.closed {
		close(ch)
		return ch, func() {}
	}
	f.subs = append(f.subs, ch)
	cancel := func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, sub := range f.subs {
			if sub == ch {
				f.subs = append(f.subs[:i], f.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, cancel
}

// History returns a copy of the recorded events, oldest first.
func (f *Feed[E]) History() []E {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]E(nil), f.history...)
}

// Close ends the feed and closes every subscription (idempotent).
func (f *Feed[E]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, sub := range f.subs {
		close(sub)
	}
	f.subs = nil
}

// sseKeepalive is how long an SSE stream may sit idle before a comment
// line keeps it alive (a var so tests can tighten it).
var sseKeepalive = 15 * time.Second

// ServeSSE streams a channel of JSON-encodable events as Server-Sent
// Events (`data: {json}\n\n` per event) until the channel closes or
// the client disconnects. It is the one SSE loop shared by the job
// events endpoint here and the live-dataset events endpoint in
// internal/stream; delivery inherits the channel's semantics (a
// subscription that replays history first streams that history first).
// An idle stream emits a `: ping` comment every sseKeepalive so
// proxies and load balancers with idle-connection timeouts do not cut
// a long-running analysis's stream between events (comments are
// ignored by SSE clients per the EventSource spec).
func ServeSSE[E any](w http.ResponseWriter, r *http.Request, ch <-chan E) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		httpapi.WriteError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()

	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // terminal event delivered; end the stream
			}
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return
			}
			if err := enc.Encode(ev); err != nil { // Encode appends \n
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
			keepalive.Reset(sseKeepalive)
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return // client went away
		}
	}
}
