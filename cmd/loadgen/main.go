// Command loadgen drives an adahealthd daemon with synthetic hospital
// traffic and reports end-to-end service latency — the million-patient
// throughput harness behind the BENCH_*_load.json snapshots.
//
//	loadgen -addr http://localhost:8080 -duration 30s -tenants 6
//	loadgen -self -duration 10s -out BENCH_load.json
//
// Traffic model: each tenant is a closed-loop submitter (one job in
// flight at a time — a hospital department waiting for its analysis)
// drawing jobs from a heavy-tailed mix: log sizes follow a bounded
// Pareto (most cohorts are small, a few are 10-20x larger), and each
// job rolls a priority class — interactive (p=10, a clinician
// waiting), standard (p=5, scheduled reporting), or batch (p=0,
// overnight re-analysis). Submission rejections (429 backpressure)
// are counted and retried after a short pause, exactly as a polite
// client would.
//
// Measured per job: admission→terminal latency (the clock starts when
// POST /v1/analyses is sent and stops when the job reports a terminal
// status), bucketed overall and per priority class into p50/p90/p99.
// A sampler polls /healthz on a fixed cadence for queue-depth and
// running-worker gauges. Results land as indented JSON in -out.
//
// With -open-loop the tenants are replaced by Poisson arrival
// processes: each priority class offers jobs at its share of -rate
// (exponential interarrivals), fired without waiting for completions —
// the classic open-loop model that exposes queue growth instead of
// self-throttling with it. Rejections (429/503) drop the arrival
// rather than retrying, so offered vs. achieved rate, per-class SLO
// attainment (latency within the class's slo_ms) and the queue-depth
// growth slope report how far the daemon is from saturation.
//
// With -streams N the mix adds N live-dataset tenants exercising the
// streaming endpoints: each registers a dataset (PUT /v1/datasets/{id})
// and appends visit batches (POST /v1/datasets/{id}/visits) on a fixed
// period, reporting append counts and each stream's final revision and
// drift gauge.
//
// With -self the harness starts an in-process daemon on a loopback
// port and drives it over real HTTP — the CI smoke mode. -min-completed
// and -max-p99 turn the run into a gate: exit status 1 when too few
// jobs completed or the overall p99 exceeds the ceiling.
//
// With -follower (requires -self) the self-hosted daemon gets a
// durable K-DB plus the WAL-shipping leader endpoints, an in-process
// replication follower tails it, and a reader queries the follower's
// GET /v1/knowledge throughout the run — the warm-standby smoke: the
// gate fails when follower queries error or the follower never
// converges with the leader's log.
//
// Profiling under load: start the daemon with -pprof and point pprof
// at it while loadgen runs, e.g.
//
//	adahealthd -addr :8080 -pprof &
//	loadgen -addr http://localhost:8080 -duration 60s &
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=30
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/kdb"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/repl"
	"adahealth/internal/service"
	"adahealth/internal/stream"
	"adahealth/internal/synth"
)

// jobClass is one priority band of the tenant mix. SLOMS is the
// class's completion-latency objective, reported as attainment (the
// fraction of completed jobs within it) in open-loop mode.
type jobClass struct {
	Name     string  `json:"name"`
	Priority int     `json:"priority"`
	Weight   float64 `json:"weight"`
	SLOMS    float64 `json:"slo_ms"`
}

var classes = []jobClass{
	{Name: "interactive", Priority: 10, Weight: 0.2, SLOMS: 5000},
	{Name: "standard", Priority: 5, Weight: 0.5, SLOMS: 15000},
	{Name: "batch", Priority: 0, Weight: 0.3, SLOMS: 60000},
}

// latencyStats summarizes one latency population in milliseconds.
type latencyStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// gaugeStats summarizes a sampled gauge series.
type gaugeStats struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	P99     float64 `json:"p99"`
	Max     int     `json:"max"`
}

// streamResult is one live-dataset tenant's tally: appends accepted
// through POST /v1/datasets/{id}/visits plus the stream's final status
// (revision, drift gauge, any resweep observed) and per-append SLO
// accounting — each append's HTTP round trip measured against the
// -stream-slo objective.
type streamResult struct {
	Dataset  string  `json:"dataset"`
	Appends  int     `json:"appends"`
	Errors   int     `json:"errors"`
	Revision int     `json:"revision,omitempty"`
	Drift    float64 `json:"drift,omitempty"`
	Resweep  string  `json:"resweep_job,omitempty"`

	AppendLatency latencyStats `json:"append_latency"`
	SLOMS         float64      `json:"append_slo_ms,omitempty"`
	SLOAttainment float64      `json:"append_slo_attainment,omitempty"`
}

// result is the BENCH_*_load.json document.
type result struct {
	Timestamp   string                  `json:"timestamp"`
	Addr        string                  `json:"addr"`
	SelfHosted  bool                    `json:"self_hosted"`
	DurationSec float64                 `json:"duration_sec"`
	Tenants     int                     `json:"tenants"`
	Seed        int64                   `json:"seed"`
	Classes     []jobClass              `json:"classes"`
	Submitted   int                     `json:"submitted"`
	Completed   int                     `json:"completed"`
	Failed      int                     `json:"failed"`
	Rejected    int                     `json:"rejected"`
	JobsPerSec  float64                 `json:"jobs_per_sec"`
	Latency     latencyStats            `json:"latency"`
	ByClass     map[string]latencyStats `json:"latency_by_class"`
	QueueDepth  gaugeStats              `json:"queue_depth"`
	Running     gaugeStats              `json:"running"`
	Patients    gaugeStats              `json:"patients_per_job"`

	// Open-loop mode only: offered vs. achieved throughput, per-class
	// SLO attainment, and the queue-depth growth slope over the run.
	OpenLoop          bool               `json:"open_loop,omitempty"`
	OfferedPerSec     float64            `json:"offered_per_sec,omitempty"`
	AchievedPerSec    float64            `json:"achieved_per_sec,omitempty"`
	SLOAttainment     map[string]float64 `json:"slo_attainment,omitempty"`
	QueueGrowthPerSec float64            `json:"queue_growth_per_sec,omitempty"`

	// -streams mode only: per-stream append tallies.
	Streams []streamResult `json:"streams,omitempty"`

	// Metrics folds selected /metrics series (scraped before and after
	// the run) into the snapshot; nil when the daemon exposed none.
	Metrics *metricsSummary `json:"metrics,omitempty"`

	// -follower mode only: the warm-standby reader's tally.
	Follower *followerResult `json:"follower,omitempty"`
}

// followerResult tallies the warm-standby smoke: knowledge queries
// served by the follower during sustained leader traffic, plus the
// follower's final replication gauges.
type followerResult struct {
	Queries      int   `json:"queries"`
	Errors       int   `json:"errors"`
	FramesBehind int64 `json:"frames_behind"`
	Converged    bool  `json:"converged"`
	Bootstraps   int64 `json:"bootstraps"`
	Reconnects   int64 `json:"reconnects"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "daemon base URL (e.g. http://localhost:8080); empty requires -self")
		self     = flag.Bool("self", false, "start an in-process daemon on a loopback port and drive it (CI smoke mode)")
		workers  = flag.Int("workers", 0, "-self daemon worker slots (0 = service default)")
		queue    = flag.Int("queue", 0, "-self daemon queue depth (0 = service default)")
		duration = flag.Duration("duration", 20*time.Second, "submission window (in-flight jobs drain afterwards)")
		tenants  = flag.Int("tenants", 4, "concurrent closed-loop tenant submitters")
		maxJobs  = flag.Int("max-jobs", 0, "total submission budget (0 = duration-bound only)")
		seed     = flag.Int64("seed", 1, "traffic-mix seed")
		fast     = flag.Bool("fast", true, "attach a reduced per-job sweep config so jobs finish in seconds (false = the daemon's full Table I grid)")
		sample   = flag.Duration("sample", 100*time.Millisecond, "queue-depth sampling period")
		out      = flag.String("out", "BENCH_load.json", "result snapshot path (empty = stdout only)")
		minDone  = flag.Int("min-completed", 0, "gate: fail unless at least this many jobs completed")
		maxP99   = flag.Duration("max-p99", 0, "gate: fail when overall p99 latency exceeds this (0 = no gate)")
		openLoop = flag.Bool("open-loop", false, "Poisson arrivals at -rate instead of closed-loop tenants (rejections drop, not retry)")
		rate     = flag.Float64("rate", 2, "open-loop total offered arrival rate in jobs/sec, split across classes by weight")
		streams  = flag.Int("streams", 0, "live-dataset tenants registering and appending via /v1/datasets")
		streamMS = flag.Duration("stream-period", 250*time.Millisecond, "interval between a stream tenant's visit-batch appends")
		streamTO = flag.Duration("stream-slo", 500*time.Millisecond, "per-append latency objective for -streams tenants (attainment reported per stream)")
		follow   = flag.Bool("follower", false, "with -self: replicate the daemon's K-DB to an in-process warm standby and query its /v1/knowledge during the run")
		reqMet   = flag.Bool("require-metrics", false, "gate: fail when GET /metrics is missing, malformed, or lacks a required cross-layer family")
	)
	flag.Parse()

	if *follow && !*self {
		fmt.Fprintln(os.Stderr, "loadgen: -follower requires -self (the smoke needs the leader's store in-process)")
		os.Exit(2)
	}
	base := *addr
	var shutdown func()
	if *self {
		kdbDir := ""
		if *follow {
			dir, err := os.MkdirTemp("", "loadgen-leader-kdb-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
			kdbDir = dir
		}
		var err error
		base, shutdown, err = startSelf(*workers, *queue, *seed, kdbDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: starting in-process daemon: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "loadgen: pass -addr or -self")
		os.Exit(2)
	}

	var followerRes *followerResult
	var stopFollower func() *followerResult
	if *follow {
		var err error
		stopFollower, err = startFollowerSmoke(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: starting follower: %v\n", err)
			os.Exit(1)
		}
	}

	// Bracket the run with /metrics scrapes so counter deltas cover
	// exactly the traffic this run offered.
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	before, beforeErr := scrapeMetrics(scrapeClient, base)

	res, err := run(base, runConfig{
		duration:     *duration,
		tenants:      *tenants,
		maxJobs:      *maxJobs,
		seed:         *seed,
		fast:         *fast,
		sample:       *sample,
		openLoop:     *openLoop,
		rate:         *rate,
		streams:      *streams,
		streamPeriod: *streamMS,
		streamSLO:    *streamTO,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	res.SelfHosted = *self

	after, afterErr := scrapeMetrics(scrapeClient, base)
	var missingFamilies []string
	switch {
	case beforeErr == nil && afterErr == nil:
		res.Metrics = foldMetrics(before, after)
		missingFamilies = checkRequiredMetrics(after)
	case *reqMet:
		// fall through to the gate below with the scrape error intact
	}
	if stopFollower != nil {
		followerRes = stopFollower()
		res.Follower = followerRes
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: encoding result: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	fmt.Printf("loadgen: %d submitted, %d completed, %d failed, %d rejected in %.1fs (%.2f jobs/s)\n",
		res.Submitted, res.Completed, res.Failed, res.Rejected, res.DurationSec, res.JobsPerSec)
	fmt.Printf("loadgen: latency p50=%.0fms p90=%.0fms p99=%.0fms max=%.0fms; queue depth mean=%.1f max=%d\n",
		res.Latency.P50MS, res.Latency.P90MS, res.Latency.P99MS, res.Latency.MaxMS,
		res.QueueDepth.Mean, res.QueueDepth.Max)
	if res.OpenLoop {
		fmt.Printf("loadgen: open-loop offered=%.2f/s achieved=%.2f/s queue growth=%.3f/s\n",
			res.OfferedPerSec, res.AchievedPerSec, res.QueueGrowthPerSec)
		for _, c := range classes {
			if att, ok := res.SLOAttainment[c.Name]; ok {
				fmt.Printf("loadgen: SLO %-11s %.0fms attainment %.1f%%\n", c.Name, c.SLOMS, att*100)
			}
		}
	}
	for _, s := range res.Streams {
		fmt.Printf("loadgen: stream %s: %d appends, %d errors, revision %d, drift %.3f, append p99=%.0fms (SLO %.0fms attainment %.1f%%)\n",
			s.Dataset, s.Appends, s.Errors, s.Revision, s.Drift,
			s.AppendLatency.P99MS, s.SLOMS, s.SLOAttainment*100)
	}
	if m := res.Metrics; m != nil {
		fmt.Printf("loadgen: metrics: admissions %v; queue depth %.0f; breaker trips %d\n",
			m.Admissions, m.QueueDepth, m.BreakerTrips)
		if m.WALCommits > 0 {
			fmt.Printf("loadgen: metrics: %d WAL group commits, fsync p99=%.1fms\n",
				m.WALCommits, m.WALFsyncP99MS)
		}
	}
	if followerRes != nil {
		fmt.Printf("loadgen: follower: %d queries, %d errors, frames behind %d, converged=%v (bootstraps=%d reconnects=%d)\n",
			followerRes.Queries, followerRes.Errors, followerRes.FramesBehind,
			followerRes.Converged, followerRes.Bootstraps, followerRes.Reconnects)
	}
	if *out != "" {
		fmt.Printf("loadgen: snapshot written to %s\n", *out)
	}

	failed := false
	if *minDone > 0 && res.Completed < *minDone {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: completed %d < min-completed %d\n", res.Completed, *minDone)
		failed = true
	}
	if *maxP99 > 0 && res.Latency.P99MS > float64(maxP99.Milliseconds()) {
		fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: p99 %.0fms > max-p99 %dms\n", res.Latency.P99MS, maxP99.Milliseconds())
		failed = true
	}
	if followerRes != nil {
		if followerRes.Queries == 0 || followerRes.Errors > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: follower served %d queries with %d errors\n",
				followerRes.Queries, followerRes.Errors)
			failed = true
		}
		if !followerRes.Converged {
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: follower never converged (frames behind %d)\n",
				followerRes.FramesBehind)
			failed = true
		}
	}
	if *reqMet {
		switch {
		case beforeErr != nil:
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: pre-run metrics scrape: %v\n", beforeErr)
			failed = true
		case afterErr != nil:
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: post-run metrics scrape: %v\n", afterErr)
			failed = true
		case len(missingFamilies) > 0:
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: /metrics missing families: %v\n", missingFamilies)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// startSelf boots an in-process daemon on a loopback port, serving the
// full API surface: job endpoints plus the live-dataset routes. A
// non-empty kdbDir makes the K-DB durable and mounts the replication
// leader endpoints over it (the -follower smoke's leader).
func startSelf(workers, queue int, seed int64, kdbDir string) (base string, shutdown func(), err error) {
	svc, err := service.New(service.Config{
		Engine:     core.Config{Seed: seed, KDBDir: kdbDir},
		Workers:    workers,
		QueueDepth: queue,
	})
	if err != nil {
		return "", nil, err
	}
	mgr, err := stream.NewManager(stream.Config{Service: svc})
	if err != nil {
		_ = svc.Close()
		return "", nil, err
	}
	handler := stream.Handler(svc, mgr)
	var leader *repl.Leader
	if kdbDir != "" {
		leader, err = repl.NewLeaderHandler(svc.Engine().KDB().Store(), repl.LeaderOptions{})
		if err != nil {
			_ = svc.Close()
			return "", nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/v1/replication/", leader)
		handler = mux
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	if leader != nil {
		srv.RegisterOnShutdown(leader.Close) // end open WAL streams
	}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = svc.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// startFollowerSmoke attaches an in-process replication follower to
// the leader at base and starts a reader querying the follower's
// GET /v1/knowledge every 250ms. The returned stop function ends the
// reader, waits for the follower to drain its replication backlog,
// and reports the tally.
func startFollowerSmoke(base string) (stop func() *followerResult, err error) {
	dir, err := os.MkdirTemp("", "loadgen-follower-kdb-")
	if err != nil {
		return nil, err
	}
	f, err := repl.OpenFollower(repl.FollowerOptions{LeaderURL: base, Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.Start(ctx)
	fkb := kdb.Follower(f.Store())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		_ = f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: repl.NewFollowerHandler(f, fkb)}
	go func() { _ = srv.Serve(ln) }()
	followerBase := "http://" + ln.Addr().String()

	var (
		res      followerResult
		mu       sync.Mutex
		stopCh   = make(chan struct{})
		readerWG sync.WaitGroup
	)
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		ticker := time.NewTicker(250 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
			}
			resp, err := client.Get(followerBase + "/v1/knowledge?limit=5")
			mu.Lock()
			res.Queries++
			if err != nil || resp.StatusCode != http.StatusOK {
				res.Errors++
			}
			mu.Unlock()
			if err == nil {
				_ = resp.Body.Close()
			}
		}
	}()

	return func() *followerResult {
		close(stopCh)
		readerWG.Wait()
		// Give the follower a moment to drain the tail the run just
		// committed, then snapshot the gauges.
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if lag := f.Lag(); lag.FramesBehind == 0 && lag.Epoch >= 0 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		lag := f.Lag()
		mu.Lock()
		res.FramesBehind = lag.FramesBehind
		res.Converged = lag.FramesBehind == 0 && lag.Epoch >= 0
		res.Bootstraps = lag.Bootstraps
		res.Reconnects = lag.Reconnects
		out := res
		mu.Unlock()
		ctxSh, cancelSh := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelSh()
		_ = srv.Shutdown(ctxSh)
		cancel()
		_ = f.Close()
		os.RemoveAll(dir)
		return &out
	}, nil
}

type runConfig struct {
	duration     time.Duration
	tenants      int
	maxJobs      int
	seed         int64
	fast         bool
	sample       time.Duration
	openLoop     bool
	rate         float64
	streams      int
	streamPeriod time.Duration
	streamSLO    time.Duration
}

// jobOutcome is one completed submission's measurement.
type jobOutcome struct {
	class    string
	latency  time.Duration
	patients int
	failed   bool
}

func run(base string, cfg runConfig) (*result, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	if err := ping(client, base); err != nil {
		return nil, fmt.Errorf("daemon unreachable at %s: %w", base, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	var (
		mu        sync.Mutex
		outcomes  []jobOutcome
		submitted int
		rejected  int
	)
	var budgetLeft *int
	if cfg.maxJobs > 0 {
		n := cfg.maxJobs
		budgetLeft = &n
	}
	takeBudget := func() bool {
		if budgetLeft == nil {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		if *budgetLeft == 0 {
			return false
		}
		*budgetLeft--
		return true
	}

	// Queue-depth sampler: /healthz on a fixed cadence until every
	// tenant drained.
	sampleCtx, stopSampler := context.WithCancel(context.Background())
	defer stopSampler()
	var (
		sampleMu     sync.Mutex
		queueSamples []int
		runSamples   []int
	)
	go func() {
		tick := time.NewTicker(cfg.sample)
		defer tick.Stop()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-tick.C:
				if q, r, err := health(client, base); err == nil {
					sampleMu.Lock()
					queueSamples = append(queueSamples, q)
					runSamples = append(runSamples, r)
					sampleMu.Unlock()
				}
			}
		}
	}()

	start := time.Now()

	// Live-dataset tenants ride alongside either traffic model,
	// exercising the streaming endpoints for the submission window.
	streamCh := make(chan streamResult, cfg.streams)
	var streamWG sync.WaitGroup
	for t := 0; t < cfg.streams; t++ {
		streamWG.Add(1)
		go func(t int) {
			defer streamWG.Done()
			streamCh <- streamTenant(ctx, client, base, t, cfg.seed, cfg.streamPeriod, cfg.streamSLO)
		}(t)
	}

	offered := 0
	var wg sync.WaitGroup
	if cfg.openLoop {
		// One Poisson arrival process per class at its share of the
		// total rate; arrivals fire without waiting for completions.
		for ci, c := range classes {
			classRate := cfg.rate * c.Weight
			if classRate <= 0 {
				continue
			}
			wg.Add(1)
			go func(ci int, c jobClass, classRate float64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(ci)*7_368_787))
				var inflight sync.WaitGroup
				defer inflight.Wait()
				for i := 0; ; i++ {
					wait := time.Duration(rng.ExpFloat64() / classRate * float64(time.Second))
					select {
					case <-ctx.Done():
						return
					case <-time.After(wait):
					}
					if !takeBudget() {
						return
					}
					patients := paretoPatients(rng)
					name := fmt.Sprintf("load-%s-a%d", c.Name, i)
					jobSeed := cfg.seed + int64(ci)*1_000_003 + int64(i)
					mu.Lock()
					offered++
					mu.Unlock()
					inflight.Add(1)
					go func() {
						defer inflight.Done()
						outcome, rej, err := submitAndWait(ctx, client, base, submitSpec{
							name: name, class: c, patients: patients,
							seed: jobSeed, fast: cfg.fast, noRetry: true,
						})
						mu.Lock()
						defer mu.Unlock()
						rejected += rej
						if err == nil {
							submitted++
							outcomes = append(outcomes, outcome)
						}
					}()
				}
			}(ci, c, classRate)
		}
	} else {
		for t := 0; t < cfg.tenants; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(t)*1_000_003))
				for i := 0; ctx.Err() == nil; i++ {
					if !takeBudget() {
						return
					}
					class := rollClass(rng)
					patients := paretoPatients(rng)
					name := fmt.Sprintf("load-t%d-j%d", t, i)
					outcome, rej, err := submitAndWait(ctx, client, base, submitSpec{
						name: name, class: class, patients: patients,
						seed: cfg.seed + int64(t*1000+i), fast: cfg.fast,
					})
					mu.Lock()
					rejected += rej
					if err == nil {
						submitted++
						outcomes = append(outcomes, outcome)
					}
					mu.Unlock()
					if err != nil {
						return // ctx expired mid-flight; in-flight job measured by no one
					}
				}
			}(t)
		}
	}
	wg.Wait()
	streamWG.Wait()
	close(streamCh)
	stopSampler()
	elapsed := time.Since(start)

	res := &result{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Addr:        base,
		DurationSec: elapsed.Seconds(),
		Tenants:     cfg.tenants,
		Seed:        cfg.seed,
		Classes:     classes,
		Submitted:   submitted,
		Rejected:    rejected,
		ByClass:     map[string]latencyStats{},
	}
	var all []time.Duration
	byClass := map[string][]time.Duration{}
	var patients []int
	for _, o := range outcomes {
		if o.failed {
			res.Failed++
			continue
		}
		res.Completed++
		all = append(all, o.latency)
		byClass[o.class] = append(byClass[o.class], o.latency)
		patients = append(patients, o.patients)
	}
	res.JobsPerSec = float64(res.Completed) / elapsed.Seconds()
	res.Latency = summarize(all)
	for class, ds := range byClass {
		res.ByClass[class] = summarize(ds)
	}
	sampleMu.Lock()
	res.QueueDepth = summarizeGauge(queueSamples)
	res.Running = summarizeGauge(runSamples)
	res.QueueGrowthPerSec = growthPerSec(queueSamples, cfg.sample)
	sampleMu.Unlock()
	res.Patients = summarizeGauge(patients)

	if cfg.openLoop {
		res.OpenLoop = true
		res.OfferedPerSec = float64(offered) / elapsed.Seconds()
		res.AchievedPerSec = res.JobsPerSec
		res.SLOAttainment = map[string]float64{}
		for _, c := range classes {
			ds := byClass[c.Name]
			if len(ds) == 0 {
				continue
			}
			within := 0
			for _, d := range ds {
				if float64(d)/float64(time.Millisecond) <= c.SLOMS {
					within++
				}
			}
			res.SLOAttainment[c.Name] = float64(within) / float64(len(ds))
		}
	}
	for s := range streamCh {
		res.Streams = append(res.Streams, s)
	}
	sort.Slice(res.Streams, func(i, j int) bool { return res.Streams[i].Dataset < res.Streams[j].Dataset })
	return res, nil
}

// growthPerSec is the least-squares slope of a gauge series sampled on
// a fixed period, in gauge units per second — positive under an
// open-loop overload means the queue grows without bound.
func growthPerSec(xs []int, period time.Duration) float64 {
	if len(xs) < 2 || period <= 0 {
		return 0
	}
	n := float64(len(xs))
	var sumT, sumX, sumTT, sumTX float64
	for i, x := range xs {
		t := float64(i) * period.Seconds()
		sumT += t
		sumX += float64(x)
		sumTT += t * t
		sumTX += t * float64(x)
	}
	den := n*sumTT - sumT*sumT
	if den == 0 {
		return 0
	}
	return (n*sumTX - sumT*sumX) / den
}

// streamTenant registers one live dataset and appends visit batches on
// a fixed period until the submission window closes: the stream-append
// slice of the tenant mix, driven entirely through the public
// /v1/datasets endpoints.
func streamTenant(ctx context.Context, client *http.Client, base string, t int, seed int64, period, slo time.Duration) streamResult {
	name := fmt.Sprintf("load-stream-t%d", t)
	res := streamResult{Dataset: name, SLOMS: float64(slo) / float64(time.Millisecond)}
	synthCfg := synth.SmallConfig()
	synthCfg.Seed = seed + int64(t)*7919
	synthCfg.NumPatients = 60
	synthCfg.TargetRecords = 600
	log, err := synth.Generate(synthCfg)
	if err != nil {
		res.Errors++
		return res
	}
	if err := doJSON(ctx, client, http.MethodPut, base+"/v1/datasets/"+name,
		stream.RegisterRequest{Log: log}, http.StatusCreated, nil); err != nil {
		res.Errors++
		return res
	}
	rng := rand.New(rand.NewSource(synthCfg.Seed))
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var appendLats []time.Duration
	withinSLO := 0
	for i := 0; ctx.Err() == nil; i++ {
		batch := visitBatch(log, rng, t, i, &day)
		var st stream.DatasetStatus
		t0 := time.Now()
		err := doJSON(ctx, client, http.MethodPost, base+"/v1/datasets/"+name+"/visits",
			batch, http.StatusAccepted, &st)
		lat := time.Since(t0)
		switch {
		case err != nil && ctx.Err() != nil:
			// window closed mid-append; not an error
		case err != nil:
			res.Errors++
		default:
			res.Appends++
			res.Revision = st.Revision
			res.Drift = st.Drift
			if st.ResweepJob != "" {
				res.Resweep = st.ResweepJob
			}
			// The HTTP round trip covers the whole append→model-updated
			// path (the stream recluster is synchronous inside the
			// append), so this latency IS the freshness SLO.
			appendLats = append(appendLats, lat)
			if slo <= 0 || lat <= slo {
				withinSLO++
			}
		}
		select {
		case <-ctx.Done():
		case <-time.After(period):
		}
	}
	res.AppendLatency = summarize(appendLats)
	if res.Appends > 0 {
		res.SLOAttainment = float64(withinSLO) / float64(res.Appends)
	}
	return res
}

// visitBatch fabricates one append: a few new patients plus a visit
// trail over the dataset's existing exam catalog.
func visitBatch(log *dataset.Log, rng *rand.Rand, t, i int, day *time.Time) stream.AppendRequest {
	var req stream.AppendRequest
	for p := 0; p < 3; p++ {
		id := fmt.Sprintf("LSP-t%d-%d-%d", t, i, p)
		req.Patients = append(req.Patients, dataset.Patient{ID: id, Age: 20 + rng.Intn(60)})
		for r := 0; r < 5; r++ {
			*day = day.Add(6 * time.Hour)
			exam := log.Exams[rng.Intn(len(log.Exams))]
			req.Records = append(req.Records, dataset.Record{
				PatientID: id, ExamCode: exam.Code, Date: *day,
			})
		}
	}
	return req
}

// doJSON performs one JSON request/response round trip, requiring the
// given status code.
func doJSON(ctx context.Context, client *http.Client, method, url string, in any, want int, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// rollClass draws a priority class from the weighted mix.
func rollClass(rng *rand.Rand) jobClass {
	u := rng.Float64()
	for _, c := range classes {
		if u < c.Weight {
			return c
		}
		u -= c.Weight
	}
	return classes[len(classes)-1]
}

// paretoPatients draws a cohort size from a bounded Pareto (alpha=1.5,
// xm=150): median ~240 patients, p99 ~3000 — most cohorts small, a
// heavy tail of hospital-scale ones.
func paretoPatients(rng *rand.Rand) int {
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	n := int(150 * math.Pow(u, -1/1.5))
	if n > 3000 {
		n = 3000
	}
	return n
}

type submitSpec struct {
	name     string
	class    jobClass
	patients int
	seed     int64
	fast     bool
	// noRetry drops the arrival on 429/503 instead of retrying — the
	// open-loop model, where a rejection is lost offered load.
	noRetry bool
}

// submitAndWait posts one synthetic-log job and polls it to a terminal
// status. The latency clock covers admission through completion —
// queue wait included, exactly what a caller experiences. Returns the
// number of 429/503 rejections absorbed before admission.
func submitAndWait(ctx context.Context, client *http.Client, base string, spec submitSpec) (jobOutcome, int, error) {
	synthCfg := synth.SmallConfig()
	synthCfg.Seed = spec.seed
	synthCfg.NumPatients = spec.patients
	synthCfg.TargetRecords = 15 * spec.patients
	req := service.SubmitRequest{
		Name:      spec.name,
		Synthetic: &synthCfg,
		Seed:      &spec.seed,
		Priority:  spec.class.Priority,
		Labels:    map[string]string{"class": spec.class.Name, "loadgen": "1"},
	}
	if spec.fast {
		req.Config = &core.Config{
			Seed:    spec.seed,
			Partial: partial.Config{Ks: []int{4}},
			Sweep:   optimize.SweepConfig{Ks: []int{3, 4, 5}, CVFolds: 4},
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return jobOutcome{}, 0, err
	}

	rejections := 0
	start := time.Now()
	var id string
	for {
		if err := ctx.Err(); err != nil {
			return jobOutcome{}, rejections, err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyses", bytes.NewReader(body))
		if err != nil {
			return jobOutcome{}, rejections, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(hreq)
		if err != nil {
			return jobOutcome{}, rejections, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			rejections++
			if spec.noRetry {
				return jobOutcome{}, rejections, fmt.Errorf("submit %s: rejected", spec.name)
			}
			select {
			case <-ctx.Done():
				return jobOutcome{}, rejections, ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		var sub service.SubmitResponse
		derr := json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return jobOutcome{}, rejections, fmt.Errorf("submit %s: HTTP %d", spec.name, resp.StatusCode)
		}
		if derr != nil {
			return jobOutcome{}, rejections, derr
		}
		id = sub.ID
		break
	}

	// Poll to terminal. The submission window closing does not abandon
	// an admitted job — it still occupies the daemon, so it is measured.
	for {
		st, err := jobStatus(client, base, id)
		if err != nil {
			return jobOutcome{}, rejections, err
		}
		if st.Terminal() {
			return jobOutcome{
				class:    spec.class.Name,
				latency:  time.Since(start),
				patients: spec.patients,
				failed:   st != service.StatusDone,
			}, rejections, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func jobStatus(client *http.Client, base, id string) (service.Status, error) {
	resp, err := client.Get(base + "/v1/analyses/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st service.JobState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.Status, nil
}

func ping(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// health reads the /healthz queue and running gauges.
func health(client *http.Client, base string) (queued, running int, err error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	return st.Queued, st.Running, nil
}

func summarize(ds []time.Duration) latencyStats {
	if len(ds) == 0 {
		return latencyStats{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return latencyStats{
		Count: len(ds),
		P50MS: ms(percentileDur(ds, 0.50)),
		P90MS: ms(percentileDur(ds, 0.90)),
		P99MS: ms(percentileDur(ds, 0.99)),
		MaxMS: ms(ds[len(ds)-1]),
	}
}

func percentileDur(sorted []time.Duration, q float64) time.Duration {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func summarizeGauge(xs []int) gaugeStats {
	if len(xs) == 0 {
		return gaugeStats{}
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	sum := 0
	for _, x := range sorted {
		sum += x
	}
	idx := int(math.Ceil(0.99*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return gaugeStats{
		Samples: len(sorted),
		Mean:    float64(sum) / float64(len(sorted)),
		P99:     float64(sorted[idx]),
		Max:     sorted[len(sorted)-1],
	}
}
