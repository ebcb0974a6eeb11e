// Command adahealthd is the ADA-HEALTH analysis daemon: a long-running
// HTTP JSON service that turns the blocking library pipeline into
// asynchronous, admission-controlled analysis jobs over one shared
// engine and its CPU budget.
//
//	adahealthd -addr :8080 -kdb-dir kdbdir/ -workers 4 -queue 64
//
// API (all JSON):
//
//	POST   /v1/analyses              submit a job; 202 + {"id": ...}, 429 when the queue is full
//	GET    /v1/analyses/{id}         status, live stage progress, stage-trace dump when done
//	GET    /v1/analyses/{id}/report  the finished report (409 until done)
//	GET    /v1/analyses/{id}/events  live progress as Server-Sent Events (closes after the terminal event)
//	DELETE /v1/analyses/{id}         cancel the job
//	GET    /v1/knowledge             K-DB knowledge items (?dataset=, ?metric=, ?limit=)
//	GET    /v1/datasets/{id}/similar datasets similar to {id}; 404 until an analysis of {id} completes or {id} registers live
//	PUT    /v1/datasets/{id}         register a live (streaming) dataset; 201, 409 if the name is taken
//	POST   /v1/datasets/{id}/visits  append a visit batch to a live dataset; 202 + revision, 503 when not durable
//	GET    /v1/datasets/{id}         live model status, drift gauge, last full-analysis report id
//	GET    /v1/datasets/{id}/events  live dataset event stream (SSE: appended, model-updated, resweep-scheduled, ...)
//	GET    /healthz                  liveness + queue/worker/K-DB gauges
//	GET    /v1/replication/status    leader WAL position (disk-backed daemons only)
//	GET    /v1/replication/snapshot  epoch-start snapshot files for follower bootstrap
//	GET    /v1/replication/wal       raw WAL frame stream (?epoch=&from=)
//
// With -kdb-dir the knowledge base is durable: every mutation is
// group-committed to a write-ahead log, so a killed daemon recovers
// all collections on restart (WAL replay over the latest snapshots),
// and accumulated knowledge warm-starts future analyses of similar
// datasets (the recall stage).
//
// With -follow the daemon is a warm-standby replication follower
// instead: it bootstraps from the leader's snapshots, tails the
// leader's WAL into its own durable log, and serves only the K-DB read
// endpoints (GET /v1/knowledge, GET /v1/datasets/{id}/similar) plus a
// /healthz carrying replication lag gauges. A leader started with
// -read-fallback <follower-url> routes those same read endpoints to
// the standby — with an explicit X-Adahealth-Stale header — whenever
// its own K-DB breaker is degraded.
//
// A submission names its data inline ({"log": {...}}) or asks the
// daemon to generate a synthetic log ({"synthetic": {"NumPatients":
// 300, ...}}), and may set "priority", "deadline_ms", "seed", "labels"
// and a full per-job "config" override (validated at admission).
//
// Every JSON answer is compact: one line and a newline. Pipe it through
// jq to read it, as in curl -s localhost:8080/healthz | jq.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting
// HTTP connections and new jobs, lets queued and running jobs finish
// within -drain, then cancels whatever remains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adahealth/internal/cluster"
	"adahealth/internal/core"
	"adahealth/internal/kdb"
	"adahealth/internal/repl"
	"adahealth/internal/service"
	"adahealth/internal/stream"
)

// newServer wraps handler in an http.Server with the daemon's timeout
// policy: bounded header/body reads and idle keep-alives against
// slow-loris and leaked connections, but NO WriteTimeout — the SSE
// event streams and the replication WAL stream are long-lived
// responses a write deadline would sever mid-analysis.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// options are the leader role's flags.
type options struct {
	kdbDir       string
	seed         int64
	workers      int
	queue        int
	jobs         int
	algorithm    cluster.Algorithm
	stageTimeout time.Duration
	pprof        bool
	drift        float64
	readFallback string
}

// leader is the wired leader role: the service and the handler tree
// serving it.
type leader struct {
	svc     *service.Service
	mgr     *stream.Manager
	handler http.Handler
	// repl is the WAL-shipping endpoint set; nil for an in-memory K-DB.
	repl *repl.Leader
}

// newLeader builds the service, its stream manager and the handler
// tree over them: the job and live-dataset API, the replication
// endpoints when the K-DB is durable, and pprof when asked for.
func newLeader(o options) (*leader, error) {
	engineCfg := core.Config{
		KDBDir:       o.kdbDir,
		Seed:         o.seed,
		Parallelism:  o.jobs,
		StageTimeout: o.stageTimeout,
	}
	engineCfg.Sweep.Cluster.Algorithm = o.algorithm
	engineCfg.Partial.Cluster.Algorithm = o.algorithm

	svc, err := service.New(service.Config{
		Engine:     engineCfg,
		Workers:    o.workers,
		QueueDepth: o.queue,
	})
	if err != nil {
		return nil, err
	}

	// The streaming manager resumes any live datasets persisted in the
	// K-DB (replaying their accepted batches), so a restarted daemon
	// picks up every stream where the last acknowledged append left it.
	mgr, err := stream.NewManager(stream.Config{
		Service:        svc,
		DriftThreshold: o.drift,
	})
	if err != nil {
		_ = svc.Close()
		return nil, err
	}

	l := &leader{svc: svc, mgr: mgr, handler: stream.Handler(svc, mgr, service.HandlerOptions{ReadFallback: o.readFallback})}
	if o.kdbDir != "" {
		// A durable K-DB can lead replication: mount the WAL-shipping
		// endpoints followers bootstrap from and tail.
		l.repl, err = repl.NewLeaderHandler(svc.Engine().KDB().Store(), repl.LeaderOptions{})
		if err != nil {
			_ = svc.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/", l.handler)
		mux.Handle("/v1/replication/", l.repl)
		l.handler = mux
	}
	if o.pprof {
		// The profiling surface rides on the API port behind an opt-in
		// flag: `go tool pprof http://host:port/debug/pprof/profile`
		// while loadgen drives traffic.
		mux := http.NewServeMux()
		mux.Handle("/", l.handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		l.handler = mux
	}
	return l, nil
}

func main() {
	var o options
	addr := flag.String("addr", ":8080", "HTTP listen address")
	flag.StringVar(&o.kdbDir, "kdb-dir", "", "knowledge-base persistence directory (WAL + snapshots, crash-recoverable; default: in-memory)")
	flag.Int64Var(&o.seed, "seed", 1, "base analysis seed (jobs may override per submission)")
	flag.IntVar(&o.workers, "workers", 0, "max concurrently running jobs (0 = service default)")
	flag.IntVar(&o.queue, "queue", 0, "admission queue depth before 429s (0 = service default)")
	flag.IntVar(&o.jobs, "jobs", 0, "CPU slots shared by all jobs' stages and their fan-out (0 = all cores)")
	algo := flag.String("algorithm", "", "K-means kernel for the sweep and partial mining: lloyd (the default; picks the dense or sparse scan), dense-lloyd, sparse-lloyd or minibatch; auto means lloyd (jobs may override per submission)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
	flag.DurationVar(&o.stageTimeout, "stage-timeout", 0, "per-stage deadline; a stage exceeding it fails its job, not the daemon (0 = none)")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ (profile the daemon under cmd/loadgen traffic)")
	flag.Float64Var(&o.drift, "drift-threshold", 0, "live-dataset descriptor drift that triggers a full re-analysis (0 = default 0.15)")
	follow := flag.String("follow", "", "run as a warm-standby follower of this leader URL (requires -kdb-dir; serves the knowledge read endpoints only)")
	flag.StringVar(&o.readFallback, "read-fallback", "", "warm-standby URL the knowledge read endpoints route to while the K-DB breaker is degraded")
	flag.Parse()

	if *follow != "" {
		runFollower(*addr, o.kdbDir, *follow, *drain)
		return
	}

	var err error
	if o.algorithm, err = cluster.ParseAlgorithm(*algo); err != nil {
		fmt.Fprintf(os.Stderr, "adahealthd: %v\n", err)
		os.Exit(2)
	}
	l, err := newLeader(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adahealthd: %v\n", err)
		os.Exit(1)
	}
	svc := l.svc
	srv := newServer(*addr, l.handler)
	if l.repl != nil {
		// Shutdown waits for every response to finish, and a follower's
		// WAL stream never finishes on its own.
		srv.RegisterOnShutdown(l.repl.Close)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("adahealthd: listening on %s (workers=%d queue=%d)\n",
		*addr, svc.Stats().Workers, svc.Stats().QueueDepth)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "adahealthd: serving: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections and jobs, give
	// in-flight work the drain budget, then cut it loose.
	fmt.Println("adahealthd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "adahealthd: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "adahealthd: drain budget exceeded; cancelled remaining jobs\n")
		os.Exit(1)
	}
	l.mgr.Close()
	// Compact and release the K-DB so the next start replays a short
	// WAL (a kill -9 skips this and recovers via replay instead).
	if err := svc.Engine().KDB().Close(); err != nil {
		fmt.Fprintf(os.Stderr, "adahealthd: closing K-DB: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("adahealthd: drained cleanly")
}

// runFollower is the warm-standby main path: replicate the leader's
// K-DB into dir and serve the knowledge read endpoints from it.
func runFollower(addr, dir, leaderURL string, drain time.Duration) {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "adahealthd: -follow requires -kdb-dir (the follower's own durable store)")
		os.Exit(2)
	}
	f, err := repl.OpenFollower(repl.FollowerOptions{LeaderURL: leaderURL, Dir: dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "adahealthd: %v\n", err)
		os.Exit(1)
	}
	fkb := kdb.Follower(f.Store())
	srv := newServer(addr, repl.NewFollowerHandler(f, fkb))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	f.Start(ctx)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("adahealthd: follower of %s listening on %s\n", leaderURL, addr)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "adahealthd: serving: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("adahealthd: follower draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "adahealthd: http shutdown: %v\n", err)
	}
	// Closing the follower keeps its WAL durable: the next start
	// resumes streaming at the same offset.
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "adahealthd: closing follower: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("adahealthd: follower drained cleanly")
}
