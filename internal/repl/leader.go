// Package repl ships the K-DB's write-ahead log from a leader daemon
// to warm-standby followers over HTTP. The wire format IS the
// docstore WAL's on-disk frame format (see the replication contract in
// package docstore): the leader streams the raw bytes of its durable
// log, and the follower re-verifies every frame's CRC, persists it to
// its own log, and applies it with the same code a reopening store
// runs — so a follower restart is an ordinary recovery, and its
// durable WAL size is its resume offset.
//
// The leader's stream is commit-woken, not polled: a caught-up stream
// blocks on the store's durable-change signal and ships each group
// commit as soon as it is fsynced, so commit → follower applied costs
// one round of shipping and applying rather than a timer period. Close
// the Leader on daemon shutdown so open streams end and the drain can
// finish.
//
// The follower is robustness-first: capped exponential backoff with
// full jitter between attempts (reset only on real progress — applied
// frames or a completed bootstrap, never on a mere status poll), a
// per-request timeout on control calls, a stall watchdog on the WAL
// stream, torn/corrupt frames aborting the stream for a clean
// reconnect, and idempotent re-apply after reconnect. Lag gauges
// (frames behind, last applied offset, seconds since leader contact)
// feed the follower's /healthz.
package repl

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"adahealth/internal/docstore"
	"adahealth/internal/httpapi"
)

// Wire paths and headers of the replication protocol.
const (
	// StatusPath serves the leader's current ReplPosition as JSON.
	StatusPath = "/v1/replication/status"
	// SnapshotPath serves the epoch-start snapshot files for follower
	// bootstrap.
	SnapshotPath = "/v1/replication/snapshot"
	// WALPath streams raw WAL frames from ?epoch=&from=.
	WALPath = "/v1/replication/wal"

	// EpochHeader / OffsetHeader / FramesHeader carry the leader's
	// position at stream start on the WAL response.
	EpochHeader  = "X-Repl-Epoch"
	OffsetHeader = "X-Repl-Offset"
	FramesHeader = "X-Repl-Frames"
)

// LeaderOptions tunes the leader's replication endpoints; zero values
// select the defaults.
type LeaderOptions struct {
	// KeepaliveInterval is how long an idle stream waits before
	// emitting a keepalive frame so the follower's stall watchdog and
	// contact gauge see a live leader (default 5s).
	KeepaliveInterval time.Duration
}

func (o LeaderOptions) withDefaults() LeaderOptions {
	if o.KeepaliveInterval <= 0 {
		o.KeepaliveInterval = 5 * time.Second
	}
	return o
}

// snapshotResponse is the JSON body of SnapshotPath: the epoch the
// files begin and the raw snapshot files (base64 via encoding/json).
type snapshotResponse struct {
	Epoch int64             `json:"epoch"`
	Files map[string][]byte `json:"files"`
}

// NewLeaderHandler serves the replication endpoints over s's durable
// log. Mount it on the daemon mux (the paths are absolute):
//
//	GET /v1/replication/status   leader position (epoch, offset, frames)
//	GET /v1/replication/snapshot epoch-start snapshot files (bootstrap)
//	GET /v1/replication/wal      raw frame stream from ?epoch=&from=
//	                             (409 when the position compacted away)
//
// The WAL stream is commit-woken: a caught-up stream stays open and
// blocks on the store's change signal (docstore.WALReader.Changed),
// shipping each commit's frames as soon as they are durable and a
// keepalive frame after KeepaliveInterval without bytes. It ends when
// the client disconnects, a compaction retires the epoch, the store
// closes, or the Leader is closed.
func NewLeaderHandler(s *docstore.Store, opts LeaderOptions) (*Leader, error) {
	reader, err := s.WALReader()
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	l := &Leader{s: s, reader: reader, opts: opts.withDefaults(), done: make(chan struct{})}
	l.mux.HandleFunc("GET "+StatusPath, l.status)
	l.mux.HandleFunc("GET "+SnapshotPath, l.snapshot)
	l.mux.HandleFunc("GET "+WALPath, l.wal)
	return l, nil
}

// Leader serves the replication endpoints (an http.Handler). Close it
// when the daemon drains: http.Server.Shutdown does not end long-lived
// responses, so register it with RegisterOnShutdown.
type Leader struct {
	s      *docstore.Store
	reader *docstore.WALReader
	opts   LeaderOptions
	mux    http.ServeMux

	done      chan struct{}
	closeOnce sync.Once
}

// ServeHTTP routes a request to its replication endpoint.
func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) { l.mux.ServeHTTP(w, r) }

// Close ends every open WAL stream and answers later WAL requests with
// 503. It does not wait for the streams' handlers to return.
func (l *Leader) Close() { l.closeOnce.Do(func() { close(l.done) }) }

func (l *Leader) status(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, l.s.ReplStatus())
}

func (l *Leader) snapshot(w http.ResponseWriter, r *http.Request) {
	pos, files, err := l.s.SnapshotBootstrap()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, snapshotResponse{Epoch: pos.Epoch, Files: files})
}

// wal streams raw frames from the requested position. The first read
// decides the response: a compacted position is a 409 (bootstrap
// needed), a fault is a 500, a closed Leader a 503; after bytes are on
// the wire errors can only end the stream, and the follower re-resolves
// via status.
func (l *Leader) wal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	epoch, err1 := strconv.ParseInt(q.Get("epoch"), 10, 64)
	from, err2 := strconv.ParseInt(q.Get("from"), 10, 64)
	if err1 != nil || err2 != nil {
		httpapi.WriteError(w, http.StatusBadRequest, errors.New("repl: wal needs integer epoch= and from="))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		httpapi.WriteError(w, http.StatusInternalServerError, errors.New("repl: streaming unsupported by connection"))
		return
	}
	select {
	case <-l.done:
		httpapi.WriteError(w, http.StatusServiceUnavailable, errors.New("repl: leader is shutting down"))
		return
	default:
	}

	// Every Read below is preceded by taking the change signal, so a
	// commit landing between the Read and the wait still wakes it.
	changed := l.reader.Changed()
	data, pos, err := l.reader.Read(epoch, from, 0)
	switch {
	case errors.Is(err, docstore.ErrCompacted):
		httpapi.WriteError(w, http.StatusConflict, err)
		return
	case err != nil:
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(EpochHeader, strconv.FormatInt(pos.Epoch, 10))
	w.Header().Set(OffsetHeader, strconv.FormatInt(pos.Offset, 10))
	w.Header().Set(FramesHeader, strconv.FormatInt(pos.Frames, 10))
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: an idle leader would otherwise buffer them
	// until the first keepalive, leaving the follower's connect (and its
	// connected/last-contact gauges) pending for a whole interval.
	flusher.Flush()

	keepalive := time.NewTimer(l.opts.KeepaliveInterval)
	defer keepalive.Stop()
	var fc frameCounter
	for {
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return
			}
			framesShippedTotal.Add(fc.count(data))
			flusher.Flush()
			from += int64(len(data))
			keepalive.Reset(l.opts.KeepaliveInterval)
		} else {
			select {
			case <-r.Context().Done():
				return
			case <-l.done:
				return
			case <-changed:
			case <-keepalive.C:
				if _, err := w.Write(docstore.KeepaliveFrame()); err != nil {
					return
				}
				flusher.Flush()
				keepalive.Reset(l.opts.KeepaliveInterval)
			}
		}
		changed = l.reader.Changed()
		data, _, err = l.reader.Read(epoch, from, 0)
		if err != nil {
			// Compacted mid-stream, the store closed, or a read fault:
			// end the stream; the follower re-resolves via status.
			return
		}
	}
}
