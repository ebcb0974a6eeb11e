// Command loadgen offers open-loop traffic to a running adahealthd and
// reports where the daemon's knee is: the arrival rate past which work
// queues and is refused instead of completing within its objective.
// The closed-loop measurement is the benchmark (go run ./bench); this
// command does the one thing a closed loop cannot, which is to keep
// arriving when the daemon falls behind.
//
//	adahealthd -addr 127.0.0.1:8080 -workers 1 -queue 8 &
//	loadgen -addr http://127.0.0.1:8080 -rate 120 -duration 20s
//
// Traffic model. Jobs arrive as three independent Poisson processes,
// one per priority class — interactive (priority 10, 20 % of -rate),
// standard (5, 50 %) and batch (0, 30 %) — for the -duration window.
// Each process runs on an absolute timeline: an arrival is due one
// exponential gap after the previous one was due, however late that
// one fired, and an arrival already due fires at once, so the offered
// rate is -rate even while the daemon holds the CPU. A job is a
// server-side synthetic cohort (bounded-Pareto size: median ≈ 240
// patients, capped at 3,000) analysed under a reduced sweep
// (K ∈ {3, 4, 5}, 4 CV folds) to keep jobs short. A 429 or 503
// drops the arrival; nothing is retried. With -streams N, N live
// datasets are registered and take a visit batch every 250 ms through
// /v1/datasets alongside the jobs.
//
// Every offered arrival ends admitted-and-measured or rejected:
// requests run past the window's close, and a job still unfinished a
// fixed drain budget (one minute) after it counts as failed. Latency
// runs from when an arrival was due until its job's event stream
// closes after the terminal event, so a late generator shows as
// latency rather than hiding.
//
// The knee report (printed, and written as JSON to -out):
//
//   - offered_per_sec: arrivals per second of the window.
//   - achieved_per_sec: completed jobs per second of window and drain.
//   - slo_attainment: per class, the share of offered arrivals that
//     completed within the class's slo_ms (interactive 5 s, standard
//     15 s, batch 60 s); rejections and failures are misses.
//   - queue_growth_per_sec: how fast the /healthz queue depth, sampled
//     every 100 ms inside the window, grew from its first reading (a
//     least-squares line through that sample). Near 0 below the knee;
//     positive past it, where the queue fills to its cap and
//     rejections take over.
//
// Below the knee, offered ≈ achieved, attainment ≈ 1 and nothing is
// rejected. -min-completed turns the run into a gate: exit status 1
// when fewer jobs completed, or when any job failed or any stream
// append errored.
//
// Profiling under load takes two processes: start the daemon with
// -pprof and profile it while loadgen drives it, e.g.
//
//	adahealthd -addr 127.0.0.1:8080 -pprof &
//	loadgen -addr http://127.0.0.1:8080 -rate 20 -duration 60s &
//	go tool pprof 'http://127.0.0.1:8080/debug/pprof/profile?seconds=30'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/service"
	"adahealth/internal/stream"
	"adahealth/internal/synth"
)

const (
	samplePeriod = 100 * time.Millisecond // /healthz queue-depth sampling
	streamPeriod = 250 * time.Millisecond // between a stream's appends
	streamSLO    = 500 * time.Millisecond // per-append objective
	drainBudget  = time.Minute            // after the window, for in-flight work
)

// jobClass is one priority band of the arrival mix. SLOMS is the
// class's completion-latency objective.
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

// streamResult is one live-dataset tenant's tally: appends accepted,
// the stream's final revision and drift gauge, any resweep observed,
// and each append's round trip against the per-append objective.
type streamResult struct {
	Dataset  string  `json:"dataset"`
	Appends  int     `json:"appends"`
	Errors   int     `json:"errors"`
	Revision int     `json:"revision,omitempty"`
	Drift    float64 `json:"drift,omitempty"`
	Resweep  string  `json:"resweep_job,omitempty"`

	AppendLatency latencyStats `json:"append_latency"`
	SLOAttainment float64      `json:"append_slo_attainment"`
}

// result is the knee report.
type result struct {
	Timestamp   string     `json:"timestamp"`
	Addr        string     `json:"addr"`
	DurationSec float64    `json:"duration_sec"`
	Rate        float64    `json:"rate"`
	Seed        int64      `json:"seed"`
	Classes     []jobClass `json:"classes"`

	// Offered = Submitted + Rejected + arrivals whose submission failed.
	Offered   int `json:"offered"`
	Submitted int `json:"submitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	OfferedPerSec     float64                 `json:"offered_per_sec"`
	AchievedPerSec    float64                 `json:"achieved_per_sec"`
	SLOAttainment     map[string]float64      `json:"slo_attainment"`
	Latency           latencyStats            `json:"latency"`
	ByClass           map[string]latencyStats `json:"latency_by_class"`
	QueueSamples      int                     `json:"queue_samples"`
	QueueDepthMean    float64                 `json:"queue_depth_mean"`
	QueueDepthMax     int                     `json:"queue_depth_max"`
	QueueGrowthPerSec float64                 `json:"queue_growth_per_sec"`

	Streams []streamResult `json:"streams,omitempty"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8080 (required)")
		duration = flag.Duration("duration", 20*time.Second, "arrival window (in-flight jobs drain afterwards)")
		rate     = flag.Float64("rate", 2, "offered job arrivals per second, split across the classes by weight")
		streams  = flag.Int("streams", 0, "live-dataset tenants registering and appending via /v1/datasets")
		seed     = flag.Int64("seed", 1, "arrival and cohort seed")
		out      = flag.String("out", "BENCH_load.json", "knee report path (empty = stdout only)")
		minDone  = flag.Int("min-completed", 0, "gate: fail unless at least this many jobs completed (any failed job or stream error also fails)")
	)
	flag.Parse()
	if *addr == "" || *rate <= 0 || *duration <= 0 || *streams < 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required, -rate and -duration must be positive, -streams not negative")
		flag.Usage()
		os.Exit(2)
	}

	res, err := run(*addr, config{duration: *duration, rate: *rate, streams: *streams, seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}

	fmt.Printf("loadgen: %d offered, %d submitted, %d rejected; %d completed, %d failed in %.1fs\n",
		res.Offered, res.Submitted, res.Rejected, res.Completed, res.Failed, res.DurationSec)
	fmt.Printf("loadgen: offered=%.2f/s achieved=%.2f/s queue growth=%.3f/s (depth mean %.1f, max %d)\n",
		res.OfferedPerSec, res.AchievedPerSec, res.QueueGrowthPerSec, res.QueueDepthMean, res.QueueDepthMax)
	fmt.Printf("loadgen: latency p50=%.0fms p90=%.0fms p99=%.0fms max=%.0fms\n",
		res.Latency.P50MS, res.Latency.P90MS, res.Latency.P99MS, res.Latency.MaxMS)
	for _, c := range classes {
		if att, ok := res.SLOAttainment[c.Name]; ok {
			fmt.Printf("loadgen: SLO %-11s %.0fms attainment %.1f%%\n", c.Name, c.SLOMS, att*100)
		}
	}
	for _, s := range res.Streams {
		fmt.Printf("loadgen: stream %s: %d appends, %d errors, revision %d, drift %.3f, append p99=%.0fms (SLO %dms attainment %.1f%%)\n",
			s.Dataset, s.Appends, s.Errors, s.Revision, s.Drift,
			s.AppendLatency.P99MS, streamSLO.Milliseconds(), s.SLOAttainment*100)
	}

	if failures := gate(res, *minDone); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "loadgen: GATE FAILED: %s\n", f)
		}
		os.Exit(1)
	}
}

// gate lists the reasons a run fails: too few completions, any failed
// job, any stream error.
func gate(res *result, minDone int) []string {
	var failures []string
	if res.Completed < minDone {
		failures = append(failures, fmt.Sprintf("completed %d < min-completed %d", res.Completed, minDone))
	}
	if res.Failed > 0 {
		failures = append(failures, fmt.Sprintf("%d jobs failed", res.Failed))
	}
	for _, s := range res.Streams {
		if s.Errors > 0 {
			failures = append(failures, fmt.Sprintf("stream %s: %d errors", s.Dataset, s.Errors))
		}
	}
	return failures
}

type config struct {
	duration time.Duration
	rate     float64
	streams  int
	seed     int64
}

// arrival is one offered job's fate.
type arrival struct {
	class    jobClass
	admitted bool          // 202
	rejected bool          // 429 or 503
	done     bool          // admitted and finished with status done
	latency  time.Duration // due → event stream closed, for done jobs
}

// queueSample is one /healthz queue-depth reading, at its offset from
// the window's start.
type queueSample struct {
	at     time.Duration
	queued int
}

func run(base string, cfg config) (*result, error) {
	client := &http.Client{}
	if _, err := queued(context.Background(), client, base); err != nil {
		return nil, fmt.Errorf("daemon unreachable at %s: %w", base, err)
	}

	start := time.Now()
	end := start.Add(cfg.duration)
	window, closeWindow := context.WithDeadline(context.Background(), end)
	defer closeWindow()
	// Requests run under the drain context, not the window: an arrival
	// in flight when the window closes is still admitted or rejected.
	drain, cancelDrain := context.WithDeadline(context.Background(), end.Add(drainBudget))
	defer cancelDrain()

	sampled := make(chan []queueSample, 1)
	go func() { sampled <- sampleQueue(window, client, base, start) }()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		arrivals []arrival
	)
	streams := make([]streamResult, cfg.streams)
	for t := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[t] = streamTenant(window, drain, client, base, t, cfg.seed)
		}()
	}
	for ci, c := range classes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(ci)*7_368_787))
			offer(rng, cfg.rate*c.Weight, start, end, func(i int, due time.Time) {
				name := fmt.Sprintf("load-%s-a%d", c.Name, i)
				patients := paretoPatients(rng)
				jobSeed := cfg.seed + int64(ci)*1_000_003 + int64(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					a := arrive(drain, client, base, c, name, patients, jobSeed, due)
					mu.Lock()
					arrivals = append(arrivals, a)
					mu.Unlock()
				}()
			})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	samples := <-sampled

	res := &result{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Addr:        base,
		DurationSec: cfg.duration.Seconds(),
		Rate:        cfg.rate,
		Seed:        cfg.seed,
		Classes:     classes,
		Offered:     len(arrivals),
		ByClass:     map[string]latencyStats{},
		Streams:     streams,
	}
	var all []time.Duration
	byClass := map[string][]time.Duration{}
	offeredBy := map[string]int{}
	withinBy := map[string]int{}
	for _, a := range arrivals {
		offeredBy[a.class.Name]++
		if a.admitted {
			res.Submitted++
		}
		switch {
		case a.rejected:
			res.Rejected++
		case !a.done:
			res.Failed++
		default:
			res.Completed++
			all = append(all, a.latency)
			byClass[a.class.Name] = append(byClass[a.class.Name], a.latency)
			if float64(a.latency)/float64(time.Millisecond) <= a.class.SLOMS {
				withinBy[a.class.Name]++
			}
		}
	}
	res.OfferedPerSec = float64(res.Offered) / cfg.duration.Seconds()
	res.AchievedPerSec = float64(res.Completed) / elapsed.Seconds()
	res.SLOAttainment = map[string]float64{}
	for class, n := range offeredBy {
		res.SLOAttainment[class] = float64(withinBy[class]) / float64(n)
	}
	res.Latency = summarize(all)
	for class, ds := range byClass {
		res.ByClass[class] = summarize(ds)
	}
	res.QueueSamples = len(samples)
	for _, s := range samples {
		res.QueueDepthMean += float64(s.queued) / float64(len(samples))
		res.QueueDepthMax = max(res.QueueDepthMax, s.queued)
	}
	res.QueueGrowthPerSec = growthPerSec(samples)
	return res, nil
}

// offer runs one Poisson arrival process of the given rate (per
// second) on an absolute timeline from start until end: each due time
// is the previous due time plus an exponential gap, never the time the
// previous arrival actually fired, so a late fire does not shift the
// arrivals after it; an arrival already due fires at once. fire gets
// the arrival's index and due time, and should return quickly.
func offer(rng *rand.Rand, rate float64, start, end time.Time, fire func(i int, due time.Time)) {
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		fire(i, due)
	}
}

// arrive submits one synthetic-cohort job and, once admitted, follows
// it to its terminal state.
func arrive(ctx context.Context, client *http.Client, base string, c jobClass, name string, patients int, seed int64, due time.Time) arrival {
	a := arrival{class: c}
	synthCfg := synth.SmallConfig()
	synthCfg.Seed = seed
	synthCfg.NumPatients = patients
	synthCfg.TargetRecords = 15 * patients
	req := service.SubmitRequest{
		Name:      name,
		Synthetic: &synthCfg,
		Seed:      &seed,
		Priority:  c.Priority,
		Labels:    map[string]string{"class": c.Name, "loadgen": "1"},
		Config: &core.Config{
			Seed:    seed,
			Partial: partial.Config{Ks: []int{4}},
			Sweep:   optimize.SweepConfig{Ks: []int{3, 4, 5}, CVFolds: 4},
		},
	}
	var sub service.SubmitResponse
	code, err := doJSON(ctx, client, http.MethodPost, base+"/v1/analyses", req, &sub)
	switch {
	case err != nil:
		return a
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		a.rejected = true
		return a
	case code != http.StatusAccepted:
		return a
	}
	a.admitted = true

	// The daemon closes a job's event stream after its terminal event.
	events, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/analyses/"+sub.ID+"/events", nil)
	if err != nil {
		return a
	}
	resp, err := client.Do(events)
	if err != nil {
		return a
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return a
	}
	a.latency = time.Since(due)
	var st service.JobState
	code, err = doJSON(ctx, client, http.MethodGet, base+"/v1/analyses/"+sub.ID, nil, &st)
	a.done = err == nil && code == http.StatusOK && st.Status == service.StatusDone
	return a
}

// sampleQueue reads the /healthz queue depth every samplePeriod, the
// first time at once, until ctx ends.
func sampleQueue(ctx context.Context, client *http.Client, base string, start time.Time) []queueSample {
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	var out []queueSample
	for {
		at := time.Since(start)
		if q, err := queued(ctx, client, base); err == nil {
			out = append(out, queueSample{at: at, queued: q})
		}
		select {
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
	}
}

// growthPerSec is how fast the queue grew after the first sample, in
// jobs per second: the least-squares slope of a line through the first
// sample. A queue that filled to its cap and stayed there reads
// positive; a line with a free intercept would fit the noise of the
// plateau instead.
func growthPerSec(samples []queueSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	first := samples[0]
	var sumTT, sumTX float64
	for _, s := range samples[1:] {
		t := (s.at - first.at).Seconds()
		sumTT += t * t
		sumTX += t * float64(s.queued-first.queued)
	}
	if sumTT == 0 {
		return 0
	}
	return sumTX / sumTT
}

// queued reads the /healthz queue-depth gauge.
func queued(ctx context.Context, client *http.Client, base string) (int, error) {
	var st service.Stats
	code, err := doJSON(ctx, client, http.MethodGet, base+"/healthz", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /healthz: HTTP %d", code)
	}
	return st.Queued, err
}

// streamTenant registers one live dataset and appends a visit batch
// every streamPeriod until the window closes. Requests run under ctx.
func streamTenant(window, ctx context.Context, client *http.Client, base string, t int, seed int64) streamResult {
	name := fmt.Sprintf("load-stream-s%d-t%d", seed, t)
	res := streamResult{Dataset: name}
	synthCfg := synth.SmallConfig()
	synthCfg.Seed = seed + int64(t)*7919
	synthCfg.NumPatients = 60
	synthCfg.TargetRecords = 600
	log, err := synth.Generate(synthCfg)
	if err != nil {
		res.Errors++
		return res
	}
	code, err := doJSON(ctx, client, http.MethodPut, base+"/v1/datasets/"+name, stream.RegisterRequest{Log: log}, nil)
	if err != nil || code != http.StatusCreated {
		res.Errors++
		return res
	}
	rng := rand.New(rand.NewSource(synthCfg.Seed))
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var lats []time.Duration
	within := 0
	for i := 0; window.Err() == nil; i++ {
		var st stream.DatasetStatus
		t0 := time.Now()
		code, err := doJSON(ctx, client, http.MethodPost, base+"/v1/datasets/"+name+"/visits",
			visitBatch(log, rng, t, i, &day), &st)
		// The append is synchronous through the online re-cluster, so
		// the round trip is the append → model-updated freshness.
		lat := time.Since(t0)
		if err != nil || code != http.StatusAccepted {
			res.Errors++
		} else {
			res.Appends++
			res.Revision = st.Revision
			res.Drift = st.Drift
			if st.ResweepJob != "" {
				res.Resweep = st.ResweepJob
			}
			lats = append(lats, lat)
			if lat <= streamSLO {
				within++
			}
		}
		select {
		case <-window.Done():
		case <-time.After(streamPeriod):
		}
	}
	res.AppendLatency = summarize(lats)
	if res.Appends > 0 {
		res.SLOAttainment = float64(within) / float64(res.Appends)
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

// doJSON performs one round trip, sending in as JSON when it is not
// nil and decoding a 2xx body into out when out is not nil. It returns
// the status code; err reports only transport and decoding failures.
func doJSON(ctx context.Context, client *http.Client, method, url string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, err
}

// paretoPatients draws a cohort size from a bounded Pareto (alpha=1.5,
// xm=150): median ~240 patients, p99 ~3000 — most cohorts small, a
// heavy tail of hospital-scale ones.
func paretoPatients(rng *rand.Rand) int {
	u := max(rng.Float64(), 1e-9)
	return min(int(150*math.Pow(u, -1/1.5)), 3000)
}

func summarize(ds []time.Duration) latencyStats {
	if len(ds) == 0 {
		return latencyStats{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	ms := func(q float64) float64 {
		i := min(max(int(math.Ceil(q*float64(len(ds))))-1, 0), len(ds)-1)
		return float64(ds[i]) / float64(time.Millisecond)
	}
	return latencyStats{Count: len(ds), P50MS: ms(0.50), P90MS: ms(0.90), P99MS: ms(0.99), MaxMS: ms(1)}
}
