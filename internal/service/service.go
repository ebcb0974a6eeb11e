// Package service layers the asynchronous analysis-as-a-service API of
// the paper's pitch over one shared core.Engine: callers submit
// examination logs and get back Job handles instead of blocking for
// the whole DAG run. A Service owns a bounded admission queue with
// backpressure (Submit fast-rejects with ErrQueueFull) and a fixed set
// of worker slots dispatching the highest-priority queued job first.
// Every running job's stages and their fan-out share the engine's one
// CPU budget (core.Config.Parallelism), so a lone job uses every idle
// core and a busy service never oversubscribes: hospital-wide traffic
// becomes an admission and scheduling problem rather than a
// goroutine-per-caller free-for-all.
//
// Jobs expose Status, Wait, Cancel and a live Events stream fed from
// the scheduler's stage trace points. cmd/adahealthd serves this API
// over HTTP (see NewHandler).
//
// # Admission encodes the log
//
// A log is encoded once, at the door (dataset.Encoded): the HTTP
// routes read the body once, under httpapi.MaxBodyBytes, and decode it with
// the dataset package's byte decoder. Submit encodes the log, however
// it was built, before it takes the admission lock, so the DAG's
// concurrent root stages only ever read the encoding and status
// queries and dispatch never wait on an encode; the Log guards its own
// build, so concurrent Submits sharing one log pointer are safe. It
// refuses a log that is not referentially clean (a repeated id, a
// record naming an unregistered patient or exam type) before it
// queues, which the HTTP layer answers with 400.
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
)

var (
	// ErrQueueFull is Submit's fast-reject: the admission queue is at
	// capacity. The HTTP layer maps it to 429.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrClosed rejects submissions to a service that is shutting
	// down.
	ErrClosed = errors.New("service: closed")
	// ErrDegraded is Submit's load-shedding reject: the K-DB is
	// unhealthy (read-only or offline) AND the admission queue is at
	// least half full. A degraded service keeps serving the work it
	// already accepted and keeps admitting while it has headroom, but
	// stops piling new load on top of a struggling store. The HTTP
	// layer maps it to 503.
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
	// FlushDelay is the debounce window of the K-DB flush: the first
	// job completion after a flush arms a timer this long, completions
	// before it fires are absorbed, and it compacts once for the whole
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
	cfg    Config

	// queueSlots is the admission semaphore: holding a slot = sitting
	// in the queue. Submit acquires non-blocking (ErrQueueFull); the
	// slot is released when a worker pops the job (or reapQueued
	// removes it).
	queueSlots chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobHeap
	jobs    map[string]*Job
	order   []string // admission order, for terminal-job eviction
	nextSeq uint64
	running int
	closed  bool

	// flushTimer is the armed debounced flush, nil when none is
	// pending (guarded by mu); flushes counts the armed and running
	// ones, which Shutdown waits for.
	flushTimer *time.Timer
	flushes    sync.WaitGroup

	wg sync.WaitGroup

	// runJob executes one dispatched job; replaced by tests to model
	// controllable workloads. The default runs the job's engine on its
	// shared CPU budget.
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
		engine:     engine,
		cfg:        cfg,
		queueSlots: make(chan struct{}, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runJob = s.defaultRun
	s.bindServiceGauges()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
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
	// Encode the log here, before the admission lock (the Log guards
	// its own build), so the DAG's root stages only read the encoding
	// and a log that is not referentially clean is refused at the door
	// instead of failing mid-job.
	if err := log.Encoded().Check(); err != nil {
		release()
		admissionsTotal.With("invalid").Inc()
		return nil, fmt.Errorf("service: %w", err)
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
		priority: o.priority,
		labels:   o.labels,
		log:      log,
		engine:   engine,
		deadline: o.deadline,
		ctx:      jctx,
		cancel:   cancel,
		heapIdx:  -1,
		status:   StatusQueued,
		queuedAt: now,
		feed:     NewFeed[StageEvent](0),
		done:     make(chan struct{}),
	}
	j.events, _ = j.feed.Subscribe()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		release()
		admissionsTotal.With("closed").Inc()
		return nil, ErrClosed
	}
	s.nextSeq++
	j.seq = s.nextSeq
	j.id = fmt.Sprintf("job-%06d", j.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
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
	// leaving it invisible until a worker drains to it. Nothing waits
	// meanwhile; finish cancels the context, and the reap of a job no
	// longer queued is a no-op.
	context.AfterFunc(jctx, func() { s.reapQueued(j) })

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

// Health is the service's condition, aggregated from admission state
// and the K-DB circuit breaker, which also records the flushes.
type Health struct {
	// Status is ok, degraded, or failing (see the constants).
	Status string `json:"status"`
	// Reasons explains any non-ok status, one condition per entry.
	Reasons []string `json:"reasons,omitempty"`
	// KDB is the knowledge-base circuit breaker's gauge snapshot.
	KDB kdb.Health `json:"kdb"`
	// LastFlushError is the most recent failed K-DB flush ("" once a
	// flush succeeds again).
	LastFlushError string `json:"last_flush_error,omitempty"`
}

// Health classifies the service as ok, degraded, or failing, with the
// reasons. Degraded means the service still serves analyses but the
// self-learning loop is impaired (K-DB read-only/offline, or flushes
// failing); failing means it no longer accepts work.
func (s *Service) Health() Health {
	h := Health{Status: HealthOK, KDB: s.engine.KDB().Health()}
	if h.KDB.Mode != kdb.ModeHealthy {
		h.Status = HealthDegraded
		h.Reasons = append(h.Reasons, fmt.Sprintf("kdb %s: %s", h.KDB.Mode, h.KDB.Reason))
	}
	if h.KDB.ConsecutiveFlushFailures > 0 {
		h.Status = HealthDegraded
		h.LastFlushError = h.KDB.Reason
		h.Reasons = append(h.Reasons, "kdb flush failing: "+h.KDB.Reason)
	}
	if s.isClosed() {
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
		s.finalFlush()
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancel running jobs, reap queued ones
		<-done
		s.finalFlush()
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
			// The job left the admission queue: free its slot.
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
	// dispatch fails without starting; finish is a no-op if reapQueued
	// already got it.
	if err := j.ctx.Err(); err != nil {
		j.finish(nil, err)
		return
	}
	j.setRunning()
	rep, err := s.safeRun(j)
	if err == nil && rep != nil {
		// The post-job flush is a durability accelerator, not part of
		// the job's contract: every acked write is already on the WAL,
		// so job completion only arms the debounced flush instead of
		// compacting inline. A burst of completions coalesces into one
		// snapshot write; a failed compaction degrades Health (through
		// the K-DB breaker) without failing any job whose analysis
		// succeeded.
		s.requestFlush()
	}
	j.finish(rep, err)
}

// requestFlush arms the debounced flush; one already armed absorbs
// this request. A request that arrives while the flush runs arms the
// next one.
func (s *Service) requestFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushTimer != nil {
		return
	}
	s.flushes.Add(1)
	s.flushTimer = time.AfterFunc(s.cfg.FlushDelay, func() {
		defer s.flushes.Done()
		s.mu.Lock()
		s.flushTimer = nil
		s.mu.Unlock()
		_ = s.engine.KDB().Flush()
	})
}

// finalFlush runs once the workers have drained, so no request arms
// another flush: it disarms a pending flush, waits for a running one,
// and flushes once itself, so a cleanly shut down service leaves a
// fully compacted store behind.
func (s *Service) finalFlush() {
	s.mu.Lock()
	t := s.flushTimer
	s.flushTimer = nil
	s.mu.Unlock()
	if t != nil && t.Stop() {
		s.flushes.Done()
	}
	s.flushes.Wait()
	_ = s.engine.KDB().Flush()
}

// safeRun isolates a panicking job execution (the runJob seam, or a
// panic escaping the engine) to its own job: the job fails with a
// stack-carrying *core.PanicError and the worker keeps dispatching.
func (s *Service) safeRun(j *Job) (rep *core.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			// A stage's panic never reaches here: the scheduler
			// recovered and counted it.
			stagePanicsTotal.With("job").Inc()
			rep, err = nil, &core.PanicError{
				Stage: "job " + j.id, Value: v, Stack: debug.Stack(),
			}
		}
	}()
	return s.runJob(j)
}

// defaultRun dispatches the job onto the shared CPU budget through the
// engine's single dispatch path; jobs analyze with NoFlush, and run
// arms the debounced K-DB flush.
func (s *Service) defaultRun(j *Job) (*core.Report, error) {
	return j.engine.AnalyzeWith(j.ctx, j.log, core.AnalyzeOptions{
		Observer: j.observeStage,
		NoFlush:  true,
	})
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

// keepJobs bounds how many jobs stay resolvable by ID.
const keepJobs = 1024

// evictLocked drops the oldest terminal jobs while more than keepJobs
// jobs are registered. Non-terminal jobs are never evicted.
func (s *Service) evictLocked() {
	if len(s.jobs) <= keepJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > keepJobs && j.Status().Terminal() {
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
