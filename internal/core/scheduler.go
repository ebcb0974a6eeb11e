package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"adahealth/internal/obs"
	"adahealth/internal/slots"
)

// The stage series (see the metric-name reference in package obs),
// recorded by the scheduler for every analysis, whether a library call
// or a service job runs it. The service counts the job-level panics it
// recovers in stagePanicsTotal's family too, under stage="job".
var (
	stageSeconds = obs.Default().HistogramVec("core_stage_seconds",
		"Per-stage wall latency from the scheduler's start/finish trace points.", nil, "stage")
	stageTotal = obs.Default().CounterVec("core_stage_total",
		"Stage executions by outcome.", "stage", "outcome")
	stagePanicsTotal = obs.Default().CounterVec("core_stage_panics_total",
		"Recovered stage panics isolated to their analysis.", "stage")
)

// PanicError is a recovered stage panic: the scheduler isolates it to
// the panicking stage's own analysis — the job fails with this error,
// stack attached, and the process (a daemon serving other jobs) keeps
// running.
type PanicError struct {
	// Stage is the panicking stage's name.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("stage %s panicked: %v", p.Stage, p.Value)
}

// StageTimeoutError fails a stage that exceeded Config.StageTimeout.
// It unwraps to context.DeadlineExceeded, so errors.Is-matching works.
type StageTimeoutError struct {
	// Stage is the stage that ran out of time.
	Stage string
	// Timeout is the per-stage budget it exceeded.
	Timeout time.Duration
}

func (e *StageTimeoutError) Error() string {
	return fmt.Sprintf("stage %s exceeded its %v deadline", e.Stage, e.Timeout)
}

func (e *StageTimeoutError) Unwrap() error { return context.DeadlineExceeded }

// StageTrace is the recorded execution of one pipeline stage: what
// ran, when, for how long, and roughly how much it allocated.
// Report.Stages holds one per stage of the analysis.
type StageTrace struct {
	// Dataset is the analyzed log's name.
	Dataset string `json:"dataset"`
	// Stage is the stage name in the pipeline DAG.
	Stage string `json:"stage"`
	// Start / End delimit the stage's wall-clock execution interval;
	// overlapping intervals between stages of one analysis are the
	// direct evidence of concurrent execution.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// WallNanos is End − Start in nanoseconds.
	WallNanos int64 `json:"wall_ns"`
	// AllocBytes is the process-wide heap-allocation delta observed
	// during the stage: exact when it ran alone (Parallelism 1 and no
	// other analysis), an upper bound when other stages run
	// concurrently.
	AllocBytes uint64 `json:"alloc_bytes"`
}

// Wall returns the stage's wall-clock duration.
func (t StageTrace) Wall() time.Duration { return time.Duration(t.WallNanos) }

// scheduleResult is what one pipeline execution hands back: the
// per-stage traces (ordered by start time) and the maximum number of
// stages observed running at once.
type scheduleResult struct {
	traces        []StageTrace
	maxConcurrent int
}

// heapAllocBytes reads the runtime's cumulative heap allocation
// counter (cheap, no stop-the-world). Deltas around a stage give its
// allocation cost: exact when nothing else runs, an upper bound when
// stages execute concurrently.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// runStage runs one stage once, with panic isolation (a panic becomes
// a *PanicError failing this analysis, never the process, and is
// counted in core_stage_panics_total) and the optional per-stage
// deadline (0 = none; exceeding it is a *StageTimeoutError). A panic in
// one of the stage's fan-out units reaches here re-raised by
// slots.Group.Wait, carrying the stack of the goroutine it happened on.
func runStage(ctx context.Context, st stage, s *pipelineState, timeout time.Duration) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Stage: st.name, Value: v, Stack: debug.Stack()}
			if up, ok := v.(*slots.Panic); ok {
				pe.Value, pe.Stack = up.Value, up.Stack
			}
			stagePanicsTotal.With(st.name).Inc()
			err = pe
		}
	}()
	if timeout <= 0 {
		return st.run(s.e, ctx, s)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	err = st.run(s.e, actx, s)
	// Distinguish "this stage ran out of its budget" (the stage ctx
	// expired while the parent is alive) from the caller giving up.
	if err != nil && ctx.Err() == nil && actx.Err() != nil &&
		errors.Is(err, context.DeadlineExceeded) {
		return &StageTimeoutError{Stage: st.name, Timeout: timeout}
	}
	return err
}

// runDAG executes stages, each once every stage it waits for has
// completed, running independent stages concurrently on the CPU budget
// pool (shared across a service's jobs): a stage holds one slot while
// it runs. Each stage runs once, under the per-stage timeout (0 =
// none), and every stage that starts is timed in core_stage_seconds and
// counted in core_stage_total. On the first stage failure the
// remaining un-started stages are abandoned and in-flight ones are
// cancelled; the first error (by completion time) is returned, except
// that a cancelled parent context always surfaces as ctx.Err().
func runDAG(ctx context.Context, stages []stage, s *pipelineState, pool slots.Pool, timeout time.Duration, observe StageObserver) (*scheduleResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx   int
		err   error
		trace StageTrace
	}
	results := make(chan outcome)

	var (
		mu         sync.Mutex
		running    int
		maxRunning int
	)
	enter := func() {
		mu.Lock()
		running++
		if running > maxRunning {
			maxRunning = running
		}
		mu.Unlock()
	}
	leave := func() {
		mu.Lock()
		running--
		mu.Unlock()
	}

	launch := func(idx int, st stage) {
		go func() {
			select {
			case pool <- struct{}{}:
			case <-ctx.Done():
				results <- outcome{idx: idx, err: ctx.Err()}
				return
			}
			defer pool.Release()
			// Both select cases can be ready at once; never start a
			// stage under a context that is already dead.
			if err := ctx.Err(); err != nil {
				results <- outcome{idx: idx, err: err}
				return
			}
			enter()
			start := time.Now()
			observe.observe(s.log.Name, st.name, StageStart, start, nil)
			a0 := heapAllocBytes()
			err := runStage(ctx, st, s, timeout)
			end := time.Now()
			// Leave before the send: the receiver may launch a
			// dependent stage at once, and a strict chain must never
			// count two stages running.
			leave()
			stageSeconds.With(st.name).Observe(end.Sub(start).Seconds())
			result := "ok"
			if err != nil {
				result = "error"
			}
			stageTotal.With(st.name, result).Inc()
			observe.observe(s.log.Name, st.name, StageFinish, end, err)
			results <- outcome{
				idx: idx,
				err: err,
				trace: StageTrace{
					Dataset:    s.log.Name,
					Stage:      st.name,
					Start:      start,
					End:        end,
					WallNanos:  end.Sub(start).Nanoseconds(),
					AllocBytes: heapAllocBytes() - a0,
				},
			}
		}()
	}

	done := map[string]bool{}
	launched := make([]bool, len(stages))
	ready := func(st stage) bool {
		for _, dep := range st.after {
			if !done[dep] {
				return false
			}
		}
		return true
	}
	dispatch := func() int {
		n := 0
		for i, st := range stages {
			if !launched[i] && ready(st) {
				launched[i] = true
				launch(i, st)
				n++
			}
		}
		return n
	}

	res := &scheduleResult{}
	inFlight := dispatch()
	var firstErr error
	completed := 0
	for inFlight > 0 {
		out := <-results
		inFlight--
		completed++
		if out.trace.Stage != "" {
			res.traces = append(res.traces, out.trace)
		}
		if out.err != nil {
			if firstErr == nil {
				firstErr = stageErr(ctx, stages[out.idx], out.err)
				cancel() // abandon the rest of the graph
			}
			continue
		}
		if firstErr == nil {
			done[stages[out.idx].name] = true
			inFlight += dispatch()
		}
	}
	mu.Lock()
	res.maxConcurrent = maxRunning
	mu.Unlock()
	sort.SliceStable(res.traces, func(i, j int) bool {
		return res.traces[i].Start.Before(res.traces[j].Start)
	})
	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if completed < len(stages) {
		// Cannot happen with a list validateStages accepts (the
		// built-in one is tested); defensive.
		return res, fmt.Errorf("core: pipeline stalled with %d of %d stages done",
			completed, len(stages))
	}
	return res, nil
}

// stageErr attributes an error to its stage, letting a context
// cancellation pass through unwrapped so errors.Is(err, ctx.Err())
// holds for callers of Analyze.
func stageErr(ctx context.Context, st stage, err error) error {
	if ctx.Err() != nil && err == ctx.Err() {
		return err
	}
	return fmt.Errorf("core: stage %s: %w", st.name, err)
}
