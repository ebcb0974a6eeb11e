// Package service layers the asynchronous analysis-as-a-service API of
// the paper's pitch over one shared core.Engine: callers submit
// examination logs and get back Job handles instead of blocking for
// the whole DAG run. A Service owns a bounded admission queue with
// backpressure (Submit fast-rejects with ErrQueueFull, SubmitWait
// blocks under a context), a fixed set of worker slots dispatching the
// highest-priority queued job first, and one stage pool — the CPU
// budget every running job's stages and their fan-out share, so a lone
// job uses every idle core and a busy service never oversubscribes —
// so hospital-wide traffic becomes an admission and scheduling problem
// rather than a goroutine-per-caller free-for-all.
//
// Jobs expose Status, Wait, Cancel and a live Events stream fed from
// the scheduler's stage trace points. cmd/adahealthd serves this API
// over HTTP (see NewHandler).
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/kdb"
	"adahealth/internal/optimize"
	"adahealth/internal/slots"
)

var (
	// ErrQueueFull is Submit's fast-reject: the admission queue is at
	// capacity. The HTTP layer maps it to 429; callers that prefer
	// blocking backpressure use SubmitWait.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrClosed rejects submissions to a service that is shutting
	// down.
	ErrClosed = errors.New("service: closed")
	// ErrDegraded is Submit's load-shedding reject: the K-DB is
	// unhealthy (read-only or offline) AND the admission queue is at
	// least half full. A degraded service keeps serving the work it
	// already accepted and keeps admitting while it has headroom, but
	// stops piling new load on top of a struggling store. The HTTP
	// layer maps it to 503; SubmitWait is exempt (blocking callers
	// asked for backpressure, not rejection).
	ErrDegraded = errors.New("service: degraded — K-DB unhealthy and queue saturated")
)

// Config configures a Service.
type Config struct {
	// Engine is the shared engine's configuration (validated by
	// core.New; bad values reject service construction).
	Engine core.Config
	// Workers bounds how many jobs run concurrently. It adds no
	// compute: every running job schedules its stages, and their
	// sweep and partial-mining fan-out, on the one shared CPU budget
	// (Engine.Parallelism slots), and a lone job uses every idle slot.
	// More workers overlap more jobs on the same slots. <= 0 defaults
	// to 4.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a worker;
	// beyond it Submit returns ErrQueueFull. <= 0 defaults to 64.
	QueueDepth int
	// KeepJobs bounds how many terminal jobs stay resolvable by ID
	// (oldest evicted first). <= 0 defaults to 1024.
	KeepJobs int
	// FlushDelay is the debounce window of the background K-DB flusher:
	// after a job completion requests a flush, the flusher waits this
	// long absorbing further requests, then compacts once for the whole
	// burst — so N near-simultaneous completions cost one snapshot
	// write instead of N serialized ones. Durability is unaffected:
	// every acked write is already on the WAL, the flush is only the
	// compaction accelerator. <= 0 defaults to 25ms.
	FlushDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 1024
	}
	if c.FlushDelay <= 0 {
		c.FlushDelay = 25 * time.Millisecond
	}
	return c
}

// Service is a long-running analysis service: one shared engine, a
// bounded priority admission queue, and Workers dispatch slots over
// one shared CPU budget.
type Service struct {
	engine *core.Engine
	pool   slots.Pool
	cfg    Config
	// arena carries sweep worker slabs (decision trees, cluster
	// scratch, RNGs) across jobs: slabs are checked out per sweep
	// worker, so the one arena is safe under every Workers count and
	// settles at the peak concurrent sweep-worker population. Reports
	// are bit-for-bit identical to arena-less runs.
	arena *optimize.Arena

	// queueSlots is the admission semaphore: holding a slot = sitting
	// in the queue. Submit acquires non-blocking (ErrQueueFull),
	// SubmitWait acquires under a context; the slot is released when a
	// worker pops the job (or a reaper removes it), which is what
	// unblocks the next SubmitWait.
	queueSlots chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobHeap
	jobs    map[string]*Job
	order   []string // admission order, for terminal-job eviction
	logRefs map[*dataset.Log]int
	nextSeq uint64
	running int
	closed  bool

	// flushMu serializes K-DB flushes between the background flusher
	// and synchronous Flush callers, so concurrent snapshot writes
	// cannot tear. Jobs analyze with NoFlush; completions only signal
	// flushReq.
	flushMu sync.Mutex
	// flushReq carries coalesced flush requests to the flusher
	// goroutine (capacity 1: a pending request absorbs later ones).
	flushReq chan struct{}
	// flushStop/flusherDone bracket the flusher's lifetime; Shutdown
	// closes flushStop (once) after the workers drain and waits for
	// flusherDone before the final synchronous flush.
	flushStop     chan struct{}
	flushStopOnce sync.Once
	flusherDone   chan struct{}
	// lastFlushErr is the most recent service-level flush outcome
	// (guarded by mu, cleared on the next successful flush). A failing
	// flush never fails the job whose completion triggered it — the
	// job's WAL writes were already acked — but it degrades Health
	// until a flush succeeds again.
	lastFlushErr error

	wg sync.WaitGroup

	// runJob executes one dispatched job; replaced by tests to model
	// controllable workloads. The default runs the job's engine on the
	// shared stage pool.
	runJob func(j *Job) (*core.Report, error)
}

// New builds and starts a service (its workers idle until the first
// submission). The engine configuration is validated here.
func New(cfg Config) (*Service, error) {
	engine, err := core.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	return NewWithEngine(engine, cfg), nil
}

// NewWithEngine wraps an existing engine — e.g. one whose K-DB the
// caller already holds — in a service.
func NewWithEngine(engine *core.Engine, cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		engine:      engine,
		arena:       optimize.NewArena(),
		pool:        slots.New(engine.StageParallelism()),
		cfg:         cfg,
		queueSlots:  make(chan struct{}, cfg.QueueDepth),
		baseCtx:     ctx,
		baseCancel:  cancel,
		jobs:        make(map[string]*Job),
		logRefs:     make(map[*dataset.Log]int),
		flushReq:    make(chan struct{}, 1),
		flushStop:   make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runJob = s.defaultRun
	s.bindServiceGauges()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.flusher()
	return s
}

// Engine exposes the service's shared engine (K-DB access, feedback
// recording).
func (s *Service) Engine() *core.Engine { return s.engine }

// Submit admits log for analysis and returns its Job handle without
// waiting for execution. It fast-rejects with ErrQueueFull when the
// admission queue is at capacity and ErrClosed after Shutdown; option
// validation failures (bad config override, empty log) also reject
// here, at admission time.
func (s *Service) Submit(ctx context.Context, log *dataset.Log, opts ...Option) (*Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Closed beats full: a draining service must answer ErrClosed (a
	// terminal condition) rather than ErrQueueFull (retryable
	// backpressure), even while the queue is still saturated.
	if s.isClosed() {
		admissionsTotal.With("closed").Inc()
		return nil, ErrClosed
	}
	if err := s.shedDegraded(); err != nil {
		admissionsTotal.With("degraded").Inc()
		return nil, err
	}
	select {
	case s.queueSlots <- struct{}{}:
	default:
		admissionsTotal.With("queue_full").Inc()
		return nil, ErrQueueFull
	}
	return s.admit(log, opts)
}

func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// SubmitWait is Submit with blocking backpressure: when the queue is
// full it waits for a slot until ctx is done (returning ctx.Err()) or
// the service closes (returning ErrClosed).
func (s *Service) SubmitWait(ctx context.Context, log *dataset.Log, opts ...Option) (*Job, error) {
	// A dead context must reject deterministically even when a queue
	// slot happens to be free (select picks ready cases at random).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s.queueSlots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		return nil, ErrClosed
	}
	return s.admit(log, opts)
}

// admit validates the submission and enqueues the job. The caller has
// already acquired a queue slot; admit releases it on rejection.
func (s *Service) admit(log *dataset.Log, opts []Option) (*Job, error) {
	release := func() { <-s.queueSlots }

	if log == nil || log.NumPatients() == 0 || log.NumRecords() == 0 {
		release()
		admissionsTotal.With("invalid").Inc()
		return nil, fmt.Errorf("service: empty examination log")
	}
	var o jobOptions
	for _, opt := range opts {
		opt(&o)
	}

	// Resolve the job's engine: base, or a validated derivation. A bad
	// override fails the submission here, not mid-job.
	engine := s.engine
	if o.override != nil || o.seedSet {
		cfg := s.engine.Config()
		if o.override != nil {
			cfg = *o.override
		}
		if o.seedSet {
			cfg.Seed = o.seed
		}
		derived, err := s.engine.WithConfig(cfg)
		if err != nil {
			release()
			admissionsTotal.With("invalid").Inc()
			return nil, err
		}
		engine = derived
	}

	var (
		jctx   context.Context
		cancel context.CancelFunc
	)
	if o.deadline.IsZero() {
		jctx, cancel = context.WithCancel(s.baseCtx)
	} else {
		jctx, cancel = context.WithDeadline(s.baseCtx, o.deadline)
	}
	now := time.Now()
	j := &Job{
		priority:      o.priority,
		labels:        o.labels,
		log:           log,
		engine:        engine,
		deadline:      o.deadline,
		seedCentroids: o.seedCentroids,
		seedFeatures:  o.seedFeatures,
		ctx:           jctx,
		cancel:        cancel,
		heapIdx:       -1,
		status:        StatusQueued,
		queuedAt:      now,
		events:        make(chan StageEvent, eventBuffer),
		done:          make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		release()
		admissionsTotal.With("closed").Inc()
		return nil, ErrClosed
	}
	// Logs arrive from arbitrary construction paths (JSON decoding in
	// the daemon, struct literals in library callers) with their lazy
	// lookup tables unbuilt; building them here — serialized under the
	// admission lock, so concurrent Submits sharing one log pointer
	// cannot race — keeps the concurrent DAG's root stages from
	// materializing them mid-analysis.
	log.EnsureIndexes()
	s.nextSeq++
	j.seq = s.nextSeq
	j.id = fmt.Sprintf("job-%06d", j.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	// Jobs are usually the only holders of their (request-scoped) log;
	// refcount submissions per pointer and drop the engine's cached
	// per-log state when the last job over a log finishes, so the
	// daemon's memory does not grow with every submission until cache
	// eviction.
	s.logRefs[log]++
	j.onFinish = func() { s.releaseLog(log) }
	s.evictLocked()
	// The queued event is emitted before the job becomes visible to
	// workers, so an Events consumer always sees queued before
	// running.
	j.emitLifecycle(StatusQueued, now)
	heap.Push(&s.queue, j)
	s.cond.Signal()
	s.mu.Unlock()
	admissionsTotal.With("accepted").Inc()

	// Reap the job if its context ends while it still sits in the
	// queue (Cancel, an expired deadline, or service abort): remove it
	// from the heap and finish it with the context's error instead of
	// leaving it invisible until a worker drains to it. The watcher
	// exits at job completion because finish cancels the context.
	go func() {
		<-jctx.Done()
		s.reapQueued(j)
	}()

	return j, nil
}

// Job resolves a job by ID (daemon lookups).
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats is a point-in-time service gauge snapshot.
type Stats struct {
	Queued     int  `json:"queued"`
	Running    int  `json:"running"`
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queue_depth"`
	Closed     bool `json:"closed"`
}

// Stats reports current admission-queue and worker occupancy.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued:     s.queue.Len(),
		Running:    s.running,
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Closed:     s.closed,
	}
}

// shedDegraded implements Submit's load-shedding policy: reject with
// ErrDegraded only when the K-DB is unhealthy AND the admission queue
// is at least half full. Either condition alone keeps admitting —
// degradation with headroom still serves (analyses complete on the
// cold path), and a saturated-but-healthy queue is ordinary
// ErrQueueFull backpressure.
func (s *Service) shedDegraded() error {
	if s.engine.KDB().Health().Mode == kdb.ModeHealthy {
		return nil
	}
	if len(s.queueSlots) < (s.cfg.QueueDepth+1)/2 {
		return nil
	}
	return ErrDegraded
}

// Health status values.
const (
	HealthOK       = "ok"       // fully serving, durable
	HealthDegraded = "degraded" // serving, but shedding durability or load
	HealthFailing  = "failing"  // not serving (draining or closed)
)

// Health is the service's condition, aggregated from admission state,
// the K-DB circuit breaker, and the last service-level flush.
type Health struct {
	// Status is ok, degraded, or failing (see the constants).
	Status string `json:"status"`
	// Reasons explains any non-ok status, one condition per entry.
	Reasons []string `json:"reasons,omitempty"`
	// KDB is the knowledge-base circuit breaker's gauge snapshot.
	KDB kdb.Health `json:"kdb"`
	// LastFlushError is the most recent failed service-level flush
	// ("" once a flush succeeds again).
	LastFlushError string `json:"last_flush_error,omitempty"`
}

// Health classifies the service as ok, degraded, or failing, with the
// reasons. Degraded means the service still serves analyses but the
// self-learning loop is impaired (K-DB read-only/offline, or flushes
// failing); failing means it no longer accepts work.
func (s *Service) Health() Health {
	h := Health{Status: HealthOK, KDB: s.engine.KDB().Health()}
	s.mu.Lock()
	closed := s.closed
	flushErr := s.lastFlushErr
	s.mu.Unlock()
	if h.KDB.Mode != kdb.ModeHealthy {
		h.Status = HealthDegraded
		h.Reasons = append(h.Reasons, fmt.Sprintf("kdb %s: %s", h.KDB.Mode, h.KDB.Reason))
	}
	if flushErr != nil {
		h.Status = HealthDegraded
		h.LastFlushError = flushErr.Error()
		h.Reasons = append(h.Reasons, "kdb flush failing: "+flushErr.Error())
	}
	if closed {
		h.Status = HealthFailing
		h.Reasons = append(h.Reasons, "service closed or draining")
	}
	return h
}

// Shutdown drains the service: admission stops (Submit returns
// ErrClosed), queued and running jobs are allowed to finish, and
// workers exit. If ctx expires first, every remaining job is cancelled
// and Shutdown returns ctx.Err() after the workers stop. Shutdown is
// idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopFlusher()
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancel running jobs, reap queued ones
		<-done
		s.stopFlusher()
		return ctx.Err()
	}
}

// Close shuts the service down immediately: in-flight jobs are
// cancelled rather than drained.
func (s *Service) Close() error {
	s.baseCancel()
	return s.Shutdown(context.Background())
}

// worker is one dispatch slot: it pops the highest-priority queued job
// and runs it to completion, until the service closes and the queue is
// empty.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.run(j)
	}
}

// next blocks until a job is queued (returning it and moving it to
// running) or the service is closed with an empty queue (returning
// nil).
func (s *Service) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queue.Len() > 0 {
			j := heap.Pop(&s.queue).(*Job)
			s.running++
			// The job left the admission queue: free its slot, which
			// is what unblocks a pending SubmitWait.
			<-s.queueSlots
			return j
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// run executes one dispatched job.
func (s *Service) run(j *Job) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()
	// A job cancelled (or deadline-expired) between admission and
	// dispatch fails without starting; finish is a no-op if the reap
	// watcher already got it.
	if err := j.ctx.Err(); err != nil {
		j.finish(nil, err)
		return
	}
	j.setRunning()
	rep, err := s.safeRun(j)
	if err == nil && rep != nil {
		// The post-job flush is a durability accelerator, not part of
		// the job's contract: every acked write is already on the WAL,
		// so job completion only signals the background flusher instead
		// of compacting inline. A burst of completions coalesces into
		// one snapshot write; a failed compaction degrades Health
		// without failing any job whose analysis succeeded.
		s.requestFlush()
	}
	j.finish(rep, err)
}

// requestFlush signals the background flusher; a request already
// pending absorbs this one (the flusher compacts once for the burst).
func (s *Service) requestFlush() {
	select {
	case s.flushReq <- struct{}{}:
	default:
	}
}

// Flush compacts the K-DB synchronously, recording the outcome in
// Health like the background flusher does. Tests and shutdown use it
// to reach a known-compacted state without waiting out the debounce
// window.
func (s *Service) Flush() error {
	s.flushMu.Lock()
	err := s.engine.KDB().Flush()
	s.flushMu.Unlock()
	s.mu.Lock()
	s.lastFlushErr = err
	s.mu.Unlock()
	return err
}

// flusher is the background flush goroutine: it waits for a request,
// debounces FlushDelay absorbing the rest of the burst, then compacts
// once. It exits when flushStop closes, flushing a pending request
// first so shutdown never strands signalled work.
func (s *Service) flusher() {
	defer close(s.flusherDone)
	for {
		select {
		case <-s.flushReq:
		case <-s.flushStop:
			return
		}
		timer := time.NewTimer(s.cfg.FlushDelay)
	absorb:
		for {
			select {
			case <-s.flushReq:
				// Coalesced into the pending compaction.
			case <-timer.C:
				break absorb
			case <-s.flushStop:
				timer.Stop()
				_ = s.Flush()
				return
			}
		}
		_ = s.Flush()
	}
}

// stopFlusher ends the background flusher (idempotent) and waits for
// it, then runs one final synchronous flush so a cleanly shut down
// service leaves a fully compacted store behind.
func (s *Service) stopFlusher() {
	s.flushStopOnce.Do(func() { close(s.flushStop) })
	<-s.flusherDone
	_ = s.Flush()
}

// safeRun isolates a panicking job execution (the runJob seam, or a
// panic escaping the engine) to its own job: the job fails with a
// stack-carrying *core.PanicError and the worker keeps dispatching.
func (s *Service) safeRun(j *Job) (rep *core.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			rep, err = nil, &core.PanicError{
				Stage: "job " + j.id, Value: v, Stack: debug.Stack(),
			}
		}
	}()
	return s.runJob(j)
}

// defaultRun dispatches the job onto the shared CPU budget through the
// engine's single dispatch path, exactly as AnalyzeMany treats a batch;
// the K-DB flush is deferred to the serialized service-level flush in
// run.
func (s *Service) defaultRun(j *Job) (*core.Report, error) {
	return j.engine.AnalyzeWith(j.ctx, j.log, core.AnalyzeOptions{
		Pool:          s.pool,
		Observer:      j.observeStage,
		NoFlush:       true,
		Arena:         s.arena,
		SeedCentroids: j.seedCentroids,
		SeedFeatures:  j.seedFeatures,
	})
}

// releaseLog drops one job's claim on its log's cached engine state,
// releasing the cache entry when no queued or running job shares the
// pointer.
func (s *Service) releaseLog(log *dataset.Log) {
	s.mu.Lock()
	s.logRefs[log]--
	last := s.logRefs[log] <= 0
	if last {
		delete(s.logRefs, log)
	}
	s.mu.Unlock()
	if last {
		s.engine.ReleaseLog(log)
	}
}

// reapQueued finishes a job whose context ended while it still sat in
// the admission queue. No-op if a worker already dispatched it.
func (s *Service) reapQueued(j *Job) {
	s.mu.Lock()
	if j.heapIdx < 0 {
		s.mu.Unlock()
		return
	}
	heap.Remove(&s.queue, j.heapIdx)
	<-s.queueSlots
	s.mu.Unlock()
	j.finish(nil, j.ctx.Err())
}

// evictLocked drops the oldest terminal jobs beyond the KeepJobs
// registry bound. Non-terminal jobs are never evicted.
func (s *Service) evictLocked() {
	if len(s.jobs) <= s.cfg.KeepJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.cfg.KeepJobs && j.Status().Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// jobHeap orders queued jobs by descending priority, then admission
// order; heapIdx tracks positions so reapQueued can remove by index.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].heapIdx = a
	h[b].heapIdx = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	j.heapIdx = -1
	*h = old[:len(old)-1]
	return j
}
