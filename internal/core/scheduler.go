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

	"adahealth/internal/kdb"
	"adahealth/internal/slots"
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

// scheduleResult is what one pipeline execution hands back: the
// per-stage traces (ordered by start time) and the maximum number of
// stages observed running at once.
type scheduleResult struct {
	traces        []kdb.StageTrace
	maxConcurrent int
}

// validateStages checks the static shape of a stage list: every output
// produced by exactly one stage, every input produced by some stage,
// and the declaration order topologically valid (each stage's inputs
// produced by strictly earlier stages). The last property is stronger
// than mere acyclicity; it rules out cycles in one pass and guarantees
// the scheduler can always make progress.
func validateStages(stages []Stage) error {
	producer := map[string]string{}
	for _, st := range stages {
		for _, out := range st.Outputs() {
			if prev, dup := producer[out]; dup {
				return fmt.Errorf("core: stages %q and %q both produce %q", prev, st.Name(), out)
			}
			producer[out] = st.Name()
		}
	}
	seen := map[string]bool{}
	names := map[string]bool{}
	for _, st := range stages {
		if names[st.Name()] {
			return fmt.Errorf("core: duplicate stage name %q", st.Name())
		}
		names[st.Name()] = true
		for _, in := range st.Inputs() {
			if _, ok := producer[in]; !ok {
				return fmt.Errorf("core: stage %q needs %q, which no stage produces", st.Name(), in)
			}
			if !seen[in] {
				return fmt.Errorf("core: stage %q declared before its input %q is produced (cycle or mis-ordered stage list)",
					st.Name(), in)
			}
		}
		for _, out := range st.Outputs() {
			seen[out] = true
		}
	}
	return nil
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

// runStageAttempt runs one stage once, with panic isolation (a panic
// becomes a *PanicError failing this analysis, never the process) and
// the optional per-stage deadline (0 = none; exceeding it is a
// *StageTimeoutError). A panic in one of the stage's fan-out units
// reaches here re-raised by slots.Group.Wait, carrying the stack of the
// goroutine it happened on.
func runStageAttempt(ctx context.Context, st Stage, s *pipelineState, timeout time.Duration) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Stage: st.Name(), Value: v, Stack: debug.Stack()}
			if up, ok := v.(*slots.Panic); ok {
				pe.Value, pe.Stack = up.Value, up.Stack
			}
			err = pe
		}
	}()
	if timeout <= 0 {
		return st.Run(ctx, s)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	err = st.Run(actx, s)
	// Distinguish "this stage ran out of its budget" (the stage ctx
	// expired while the parent is alive) from the caller giving up.
	if err != nil && ctx.Err() == nil && actx.Err() != nil &&
		errors.Is(err, context.DeadlineExceeded) {
		return &StageTimeoutError{Stage: st.Name(), Timeout: timeout}
	}
	return err
}

// runDAG executes stages respecting their declared data dependencies,
// running independent stages concurrently on the CPU budget pool
// (shared across logs by AnalyzeMany and across a service's jobs): a
// stage holds one slot while it runs. Each stage runs once, under the
// per-stage timeout (0 = none). On the first stage failure the
// remaining un-started stages are abandoned and in-flight ones are
// cancelled; the first error (by completion time) is returned, except
// that a cancelled parent context always surfaces as ctx.Err().
func runDAG(ctx context.Context, stages []Stage, s *pipelineState, pool slots.Pool, timeout time.Duration, observe StageObserver) (*scheduleResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx   int
		err   error
		trace kdb.StageTrace
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

	launch := func(idx int, st Stage) {
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
			defer leave()
			start := time.Now()
			observe.observe(s.log.Name, st.Name(), StageStart, start, nil)
			a0 := heapAllocBytes()
			err := runStageAttempt(ctx, st, s, timeout)
			end := time.Now()
			observe.observe(s.log.Name, st.Name(), StageFinish, end, err)
			results <- outcome{
				idx: idx,
				err: err,
				trace: kdb.StageTrace{
					Dataset:    s.log.Name,
					Stage:      st.Name(),
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
	ready := func(st Stage) bool {
		for _, in := range st.Inputs() {
			if !done[in] {
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
			for _, o := range stages[out.idx].Outputs() {
				done[o] = true
			}
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
		// Cannot happen with a validateStages-checked list; defensive.
		return res, fmt.Errorf("core: pipeline stalled with %d of %d stages done",
			completed, len(stages))
	}
	return res, nil
}

// stageErr attributes an error to its stage, letting a context
// cancellation pass through unwrapped so errors.Is(err, ctx.Err())
// holds for callers of Analyze.
func stageErr(ctx context.Context, st Stage, err error) error {
	if ctx.Err() != nil && err == ctx.Err() {
		return err
	}
	return fmt.Errorf("core: stage %s: %w", st.Name(), err)
}
