package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"adahealth/internal/kdb"
	"adahealth/internal/repl"
	"adahealth/internal/service"
	"adahealth/internal/stream"
)

// daemon is the production topology of cmd/adahealthd in this process:
// a zero-value service.Config (4 workers, 64-deep queue, 25 ms flush
// debounce), the stream manager and handler, and the replication
// leader routes when the K-DB is durable, on a loopback listener.
type daemon struct {
	svc  *service.Service
	mgr  *stream.Manager
	srv  *http.Server
	base string
	// kdbDir is the K-DB directory ("" = in memory).
	kdbDir string

	standby    *standby // non-nil on kdb-replica
	standbyDir string
}

// standby is an in-process warm-standby follower of a daemon.
type standby struct {
	f    *repl.Follower
	kb   *kdb.KDB
	srv  *http.Server
	base string
	stop context.CancelFunc
}

// boot starts a daemon over kdbDir ("" = in-memory K-DB) exactly as
// cmd/adahealthd wires it. svcCfg is the zero value on every measured
// path; only template building passes anything else.
func boot(kdbDir string, svcCfg service.Config) (*daemon, error) {
	svcCfg.Engine.KDBDir = kdbDir
	svc, err := service.New(svcCfg)
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	mgr, err := stream.NewManager(stream.Config{Service: svc})
	if err != nil {
		_ = svc.Close()
		return nil, fmt.Errorf("stream.NewManager: %w", err)
	}
	handler := stream.Handler(svc, mgr)
	if kdbDir != "" {
		leaderH, err := repl.NewLeaderHandler(svc.Engine().KDB().Store(), repl.LeaderOptions{})
		if err != nil {
			_ = svc.Close()
			return nil, fmt.Errorf("repl.NewLeaderHandler: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/v1/replication/", leaderH)
		handler = mux
	}
	srv, base, err := serve(handler)
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	return &daemon{svc: svc, mgr: mgr, srv: srv, base: base, kdbDir: kdbDir}, nil
}

// serve starts handler on a free loopback port.
func serve(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

// attachStandby opens a follower over dir, starts its sync loop against
// the daemon and serves the follower handler. It returns once the
// follower has bootstrapped and holds an open WAL stream, which is the
// state a standby is useful in.
func (d *daemon) attachStandby(dir string) error {
	f, err := repl.OpenFollower(repl.FollowerOptions{LeaderURL: d.base, Dir: dir})
	if err != nil {
		return fmt.Errorf("repl.OpenFollower: %w", err)
	}
	kb := kdb.Follower(f.Store())
	srv, base, err := serve(repl.NewFollowerHandler(f, kb))
	if err != nil {
		_ = f.Close()
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	f.Start(ctx)
	d.standby = &standby{f: f, kb: kb, srv: srv, base: base, stop: stop}
	d.standbyDir = dir
	if !waitUntil(func() bool { lag := f.Lag(); return lag.Connected && lag.Bootstraps > 0 }) {
		return errors.New("standby did not bootstrap and connect")
	}
	return nil
}

// followerCheckEvery is how often the harness looks at the in-process
// follower's applied offset. It is far below every latency reported,
// so the wait adds no quantisation of its own.
const followerCheckEvery = 100 * time.Microsecond

// awaitApplied blocks until the standby has applied the leader's log up
// to offset in the leader's current epoch.
func (d *daemon) awaitApplied(offset int64) error {
	if !waitUntil(func() bool { return d.standby.f.Lag().LastAppliedOffset >= offset }) {
		return fmt.Errorf("standby stuck at offset %d, leader at %d", d.standby.f.Lag().LastAppliedOffset, offset)
	}
	return nil
}

// waitUntil checks cond every followerCheckEvery and reports whether it
// came true within 30 s.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(followerCheckEvery)
	}
	return true
}

// shutdown stops the daemon the way SIGTERM does: standby first (its
// WAL stream would otherwise hold the leader's listener open), HTTP,
// the service drain, then the K-DB's compacting close.
func (d *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var first error
	note := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", what, err)
		}
	}
	if s := d.standby; s != nil {
		s.stop()
		note("standby http shutdown", s.srv.Shutdown(ctx))
		note("follower close", s.f.Close())
	}
	note("http shutdown", d.srv.Shutdown(ctx))
	note("service shutdown", d.svc.Shutdown(ctx))
	note("kdb close", d.svc.Engine().KDB().Close())
	return first
}

// copyDir copies the regular files of src into a fresh dst. K-DB
// directories are flat (snapshots, wal.log, repl.meta).
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// client is one closed-loop caller: it sends its next request only
// after the previous reply, over its own keep-alive connections.
type client struct {
	http *http.Client
	buf  bytes.Buffer // the last response body
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request with a pre-marshalled body and leaves the
// response body in c.buf. Any status other than want is an error.
func (c *client) do(method, url string, body []byte, want int) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, resp.StatusCode, want, c.buf.String())
	}
	return nil
}

// drain follows a response stream to its end without keeping it: how
// the harness learns a job is terminal (the job event stream closes
// after the terminal event), with no polling.
func (c *client) drain(url string) error {
	resp, err := c.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// templateServiceConfig is the service a K-DB template is built with:
// the background flusher never fires on its own, so where the
// snapshot ends and the WAL tail begins depends on the inputs only,
// not on how job completions raced the 25 ms debounce.
func templateServiceConfig() service.Config {
	return service.Config{FlushDelay: time.Hour}
}
