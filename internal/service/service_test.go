package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/synth"
)

// testLog builds one small synthetic log.
func testLog(t *testing.T, seed int64) *dataset.Log {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Seed = seed
	log, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// fastConfig is the quick analysis configuration the core tests use.
func fastConfig(seed int64) core.Config {
	return core.Config{
		Seed:    seed,
		Partial: partial.Config{Ks: []int{4}},
		Sweep:   optimize.SweepConfig{Ks: []int{3, 4, 5}, CVFolds: 4},
	}
}

// blockingService builds a service whose jobs block until released,
// for deterministic admission/dispatch tests. started receives each
// job as its fake run begins; release unblocks all current and future
// runs when closed. runJob is replaced before any submission, so the
// worker goroutines observe the override through the admission mutex.
func blockingService(t *testing.T, workers, depth int) (svc *Service, started chan *Job, release chan struct{}, order func() []string) {
	t.Helper()
	svc, err := New(Config{Engine: fastConfig(1), Workers: workers, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	started = make(chan *Job, 64)
	release = make(chan struct{})
	var mu sync.Mutex
	var ran []string
	svc.runJob = func(j *Job) (*core.Report, error) {
		mu.Lock()
		ran = append(ran, j.ID())
		mu.Unlock()
		started <- j
		select {
		case <-release:
			return &core.Report{}, nil
		case <-j.ctx.Done():
			return nil, j.ctx.Err()
		}
	}
	order = func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ran...)
	}
	return svc, started, release, order
}

// runLogs makes svc's jobs run with run, after noting the log each
// one analyzes; the job itself drops that log when it finishes. It must
// be called before any submission, as runJob is replaced.
func runLogs(svc *Service, run func(*Job) (*core.Report, error)) (logOf func(*Job) *dataset.Log) {
	var logs sync.Map
	svc.runJob = func(j *Job) (*core.Report, error) {
		logs.Store(j.ID(), j.log)
		return run(j)
	}
	return func(j *Job) *dataset.Log {
		l, _ := logs.Load(j.ID())
		log, _ := l.(*dataset.Log)
		return log
	}
}

// submitRetry submits log, retrying while the service answers with
// retryable backpressure (ErrQueueFull, ErrDegraded), until ctx ends.
func submitRetry(ctx context.Context, svc *Service, log *dataset.Log) (*Job, error) {
	for {
		j, err := svc.Submit(ctx, log)
		if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDegraded) {
			return j, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.Status(), want)
}

// TestSubmitQueueFullFastReject: with every worker busy and the queue
// at capacity, Submit must reject immediately with ErrQueueFull.
func TestSubmitQueueFullFastReject(t *testing.T) {
	svc, started, _, _ := blockingService(t, 1, 2)
	log := testLog(t, 1)
	ctx := context.Background()

	j1, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	<-started // j1 occupies the only worker; its queue slot is free again
	_ = j1

	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(ctx, log); err != nil {
			t.Fatalf("queued submission %d: %v", i, err)
		}
	}
	if _, err := svc.Submit(ctx, log); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}

	// Once draining, closed beats full: the still-saturated queue must
	// not disguise a terminal ErrClosed as retryable backpressure.
	go svc.Shutdown(context.Background()) // blocks on the stuck jobs; admission closes immediately
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.Submit(ctx, log); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining service never reported ErrClosed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPriorityOrdering: with the single worker saturated, queued jobs
// must dispatch by descending priority, submission order breaking
// ties.
func TestPriorityOrdering(t *testing.T) {
	svc, started, release, order := blockingService(t, 1, 8)
	log := testLog(t, 1)
	ctx := context.Background()

	first, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	<-started // saturate the worker before queueing the contenders

	low, _ := svc.Submit(ctx, log, WithPriority(0))
	highA, _ := svc.Submit(ctx, log, WithPriority(5))
	highB, _ := svc.Submit(ctx, log, WithPriority(5))
	mid, _ := svc.Submit(ctx, log, WithPriority(1))
	if low == nil || highA == nil || highB == nil || mid == nil {
		t.Fatal("submission failed")
	}

	close(release)
	for _, j := range []*Job{first, low, highA, highB, mid} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
	}
	want := []string{first.ID(), highA.ID(), highB.ID(), mid.ID(), low.ID()}
	if !reflect.DeepEqual(order(), want) {
		t.Fatalf("dispatch order %v, want %v", order(), want)
	}
}

// TestQueuedThenRunningEvents is the acceptance property: on a
// saturated 2-slot service a submitted job reports queued then running
// via Events(), and the stream closes exactly once after the terminal
// event.
func TestQueuedThenRunningEvents(t *testing.T) {
	svc, started, release, _ := blockingService(t, 2, 8)
	log := testLog(t, 1)
	ctx := context.Background()

	// Saturate both slots.
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(ctx, log); err != nil {
			t.Fatal(err)
		}
		<-started
	}
	j, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status() != StatusQueued {
		t.Fatalf("status = %s, want queued", j.Status())
	}
	close(release)

	var phases []string
	for ev := range j.Events() {
		if ev.Stage == "" {
			phases = append(phases, ev.Phase)
		}
		if ev.JobID != j.ID() {
			t.Errorf("event for %s on job %s's stream", ev.JobID, j.ID())
		}
	}
	// Channel closed: a further receive must not block.
	if _, open := <-j.Events(); open {
		t.Error("events channel delivered after close")
	}
	want := []string{"queued", "running", "done"}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("lifecycle phases %v, want %v", phases, want)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineExpired: a job whose deadline lapses (here: while
// queued behind a saturated worker) must fail with
// context.DeadlineExceeded from Wait.
func TestDeadlineExpired(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 8)
	log := testLog(t, 1)
	ctx := context.Background()

	if _, err := svc.Submit(ctx, log); err != nil {
		t.Fatal(err)
	}
	<-started

	j, err := svc.Submit(ctx, log, WithDeadline(time.Now().Add(20*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want context.DeadlineExceeded", err)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Status())
	}
	close(release)
}

// TestCancelQueuedJob: cancelling a queued job reaps it immediately —
// it never runs, Wait returns context.Canceled, and its queue slot is
// returned (the follow-up Submit succeeds).
func TestCancelQueuedJob(t *testing.T) {
	svc, started, release, order := blockingService(t, 1, 1)
	log := testLog(t, 1)
	ctx := context.Background()

	if _, err := svc.Submit(ctx, log); err != nil {
		t.Fatal(err)
	}
	<-started
	j, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if j.Status() != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", j.Status())
	}
	// The reap freed the queue slot.
	if _, err := svc.Submit(ctx, log); err != nil {
		t.Fatalf("slot not returned after reap: %v", err)
	}
	close(release)
	for _, id := range order() {
		if id == j.ID() {
			t.Fatal("cancelled queued job was dispatched")
		}
	}
}

// TestBadSubmissionRejectedAtAdmission: an invalid config override and
// an empty log must fail Submit itself, not the job later.
func TestBadSubmissionRejectedAtAdmission(t *testing.T) {
	svc, _, _, _ := blockingService(t, 1, 4)
	ctx := context.Background()

	if _, err := svc.Submit(ctx, testLog(t, 1), WithConfigOverride(core.Config{MinSupportFrac: 2})); err == nil {
		t.Fatal("accepted MinSupportFrac 2 override")
	}
	if _, err := svc.Submit(ctx, &dataset.Log{Name: "empty"}); err == nil {
		t.Fatal("accepted an empty log")
	}
	// Rejections must not leak queue slots.
	st := svc.Stats()
	if st.Queued != 0 {
		t.Fatalf("rejected submissions left %d queued", st.Queued)
	}
}

// TestSubmitSharedUnencodedLog: concurrent Submits of one log pointer
// whose encoding was never built — a struct literal, as library
// callers and the stream's resweep snapshots pass — build it once
// between them, outside the admission lock, and both jobs complete.
// Under -race this fails unless the Log guards its own build.
func TestSubmitSharedUnencodedLog(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	src := testLog(t, 5)
	log := &dataset.Log{Name: src.Name, Exams: src.Exams, Patients: src.Patients, Records: src.Records}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	jobs := make([]*Job, 2)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i], errs[i] = svc.Submit(ctx, log)
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID(), err)
		}
	}
}

// TestShutdownDrains: Shutdown lets queued jobs finish, then Submit
// reports ErrClosed.
func TestShutdownDrains(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 4)
	log := testLog(t, 1)
	ctx := context.Background()

	j1, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{j1, j2} {
		if j.Status() != StatusDone {
			t.Errorf("job %s drained into %s, want done", j.ID(), j.Status())
		}
	}
	if _, err := svc.Submit(ctx, log); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Submit: %v, want ErrClosed", err)
	}
}

// TestShutdownLeavesNoGoroutine: once Shutdown returns, the workers
// are gone and no flush or reap is left running — with one job
// running, one queued and one cancelled while queued (its reap has
// already run), the goroutine count is back at its baseline from
// before the service started.
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	svc, started, release, _ := blockingService(t, 1, 4)
	log := testLog(t, 1)
	ctx := context.Background()

	running, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	reaped, err := svc.Submit(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	reaped.Cancel()
	waitStatus(t, reaped, StatusCancelled)

	close(release)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{running, queued} {
		if j.Status() != StatusDone {
			t.Errorf("job %s drained into %s, want done", j.ID(), j.Status())
		}
	}
	waitGoroutines(t, base)
}

// TestQueuedJobsAddNoGoroutine: an idle service runs its Workers and
// nothing else, and jobs queued behind busy workers wait as heap
// entries, with no goroutine of their own.
func TestQueuedJobsAddNoGoroutine(t *testing.T) {
	const workers, queued = 2, 8
	log := testLog(t, 1)
	ctx := context.Background()
	base := runtime.NumGoroutine()
	svc, started, release, _ := blockingService(t, workers, queued)
	if n := runtime.NumGoroutine(); n > base+workers {
		t.Fatalf("idle service: %d goroutines, want at most %d (%d + %d workers)", n, base+workers, base, workers)
	}
	for i := 0; i < workers; i++ {
		if _, err := svc.Submit(ctx, log); err != nil {
			t.Fatal(err)
		}
		<-started
	}
	busy := runtime.NumGoroutine()
	for i := 0; i < queued; i++ {
		if _, err := svc.Submit(ctx, log); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > busy {
		t.Fatalf("%d queued jobs took the goroutine count from %d to %d", queued, busy, n)
	}
	close(release)
}

// comparableReport strips execution telemetry and the closure-bearing
// recommendations, as the core scheduling-equivalence test does.
func comparableReport(rep *core.Report) core.Report {
	c := *rep
	c.Stages = nil
	c.StageConcurrency = 0
	c.Recommendations = nil
	return c
}

// TestJobReportMatchesEngineAnalyze is the acceptance property: a
// Submit-ed job's report must be bit-for-bit identical to
// Engine.Analyze on the same log and seed, and its Events stream must
// carry start/finish for every pipeline stage.
func TestJobReportMatchesEngineAnalyze(t *testing.T) {
	const seed = 7
	log := testLog(t, seed)

	engine, err := core.New(fastConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{Engine: fastConfig(seed), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, err := svc.Submit(context.Background(), log, WithLabels(map[string]string{"ward": "diabetic"}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(comparableReport(want), comparableReport(got)) {
		t.Error("job report differs from Engine.Analyze")
	}
	if len(got.Stages) != len(want.Stages) {
		t.Errorf("job traced %d stages, engine %d", len(got.Stages), len(want.Stages))
	}

	// Every stage surfaced a start and a finish in the progress log.
	starts, finishes := map[string]int{}, map[string]int{}
	for _, ev := range j.State().Events {
		switch ev.Phase {
		case "start":
			starts[ev.Stage]++
		case "finish":
			finishes[ev.Stage]++
		}
	}
	for _, tr := range want.Stages {
		if starts[tr.Stage] != 1 || finishes[tr.Stage] != 1 {
			t.Errorf("stage %s: %d starts, %d finishes in events, want 1/1",
				tr.Stage, starts[tr.Stage], finishes[tr.Stage])
		}
	}
	if j.Labels()["ward"] != "diabetic" {
		t.Errorf("labels lost: %v", j.Labels())
	}
}

// TestFinishedJobDropsItsLog: once a job finishes, its log is
// collectable while the job still resolves by ID with its report, so
// the finished jobs the service keeps do not keep their logs alive.
func TestFinishedJobDropsItsLog(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// The log is made and submitted in a call of its own, so no
	// pointer to it is left in this frame.
	submit := func() (*Job, weak.Pointer[dataset.Log]) {
		log := testLog(t, 1)
		j, err := svc.Submit(context.Background(), log)
		if err != nil {
			t.Fatal(err)
		}
		return j, weak.Make(log)
	}
	j, logRef := submit()
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if logRef.Value() != nil {
		t.Error("a finished job keeps its log alive")
	}
	got, ok := svc.Job(j.ID())
	if !ok {
		t.Fatalf("job %s no longer resolves", j.ID())
	}
	if rep, ok := got.Report(); !ok || rep == nil {
		t.Errorf("job %s lost its report", j.ID())
	}
}

// TestWithSeedOverride: two jobs with different seeds on one service
// produce reports matching their per-seed Engine.Analyze equivalents.
func TestWithSeedOverride(t *testing.T) {
	log := testLog(t, 3)
	svc, err := New(Config{Engine: fastConfig(3), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	j, err := svc.Submit(context.Background(), log, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.New(fastConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparableReport(want), comparableReport(got)) {
		t.Error("WithSeed(11) report differs from a seed-11 engine's")
	}
}
