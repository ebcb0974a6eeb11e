package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/kdb"
	"adahealth/internal/slots"
	"adahealth/internal/stats"
)

// panicStage returns a stage that panics on every run, and the count
// of its runs.
func panicStage(name string) (stage, *atomic.Int32) {
	calls := new(atomic.Int32)
	return testStage(name, nil, func(context.Context, *pipelineState) error {
		calls.Add(1)
		panic("stage exploded")
	}), calls
}

// slowStage returns a stage that waits for after and then sleeps for d
// (honouring ctx) before succeeding, and the count of its runs.
func slowStage(name string, after []string, d time.Duration) (stage, *atomic.Int32) {
	calls := new(atomic.Int32)
	return testStage(name, after, func(ctx context.Context, _ *pipelineState) error {
		calls.Add(1)
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}), calls
}

// TestStagePanicIsolated: a panicking stage must surface as a
// *PanicError carrying the stage name and a stack trace — failing the
// analysis, not the process — after running exactly once, and the
// stage that consumes its output must never start.
func TestStagePanicIsolated(t *testing.T) {
	t.Run("dag", func(t *testing.T) {
		st, calls := panicStage("boom")
		ran := false
		stages := []stage{st, testStage("down", []string{"boom"},
			func(context.Context, *pipelineState) error { ran = true; return nil })}
		_, err := runDAG(context.Background(), stages, testState(), make(chan struct{}, 1), 0, nil)
		if err == nil {
			t.Fatal("panicking stage reported success")
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("error = %v (%T), want *PanicError", err, err)
		}
		if pe.Stage != "boom" || pe.Value != "stage exploded" {
			t.Errorf("panic error = %+v, want stage boom value %q", pe, "stage exploded")
		}
		if !strings.Contains(string(pe.Stack), "panicStage") {
			t.Error("panic stack does not reach the panicking stage")
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("panicking stage ran %d times, want 1", got)
		}
		if ran {
			t.Error("downstream stage ran after its producer panicked")
		}
	})
}

// explodeInUnit is a fan-out unit's body that panics, named so the
// test can find it on the recovered stack.
func explodeInUnit() { panic("unit exploded") }

// TestStagePanicInFanOutIsolated: a panic in a unit a stage fanned out
// over the CPU budget — on a helper goroutine, not the stage's own —
// still fails only the analysis, as a *PanicError carrying the unit's
// value and the helper's stack, and no helper outlives the stage.
func TestStagePanicInFanOutIsolated(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := slots.New(2)
	st := testStage("fan", nil, func(context.Context, *pipelineState) error {
		g := slots.NewGroup(pool)
		onHelper := make(chan struct{})
		g.Go(func() { close(onHelper); explodeInUnit() })
		<-onHelper // the stage holds one slot; the unit took the other
		g.Wait()
		return nil
	})
	_, err := runDAG(context.Background(), []stage{st}, testState(), pool, 0, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PanicError", err, err)
	}
	if pe.Stage != "fan" || pe.Value != "unit exploded" {
		t.Errorf("panic error = stage %q value %v, want stage fan value %q", pe.Stage, pe.Value, "unit exploded")
	}
	if !strings.Contains(string(pe.Stack), "explodeInUnit") {
		t.Errorf("panic stack does not reach the panicking unit:\n%s", pe.Stack)
	}
	if len(pool) != 0 {
		t.Errorf("%d slots still held after the stage failed", len(pool))
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the stage (baseline %d)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStagePanicDoesNotWedgeDAG: with more than one stage in flight,
// a panic in one must still drain the scheduler and return (no
// deadlocked WaitGroup, no leaked goroutine holding the semaphore).
func TestStagePanicDoesNotWedgeDAG(t *testing.T) {
	ok, _ := slowStage("ok", nil, 5*time.Millisecond)
	boom, _ := panicStage("boom")
	stages := []stage{ok, boom}
	done := make(chan error, 1)
	go func() {
		_, err := runDAG(context.Background(), stages, testState(), make(chan struct{}, 2), 0, nil)
		done <- err
	}()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("error = %v, want *PanicError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DAG scheduler wedged after stage panic")
	}
}

// TestStageTimeout: a stage exceeding the per-stage budget fails with
// *StageTimeoutError (matching context.DeadlineExceeded) after running
// once; a stage finishing inside the budget is untouched. With a
// sibling still in flight, the timeout — not the sibling's
// cancellation — is the error, and runDAG returns promptly.
func TestStageTimeout(t *testing.T) {
	const budget = 100 * time.Millisecond
	checkTimeout := func(t *testing.T, err error, elapsed time.Duration) {
		t.Helper()
		var te *StageTimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("error = %v (%T), want *StageTimeoutError", err, err)
		}
		if te.Stage != "glacial" || te.Timeout != budget {
			t.Errorf("timeout error = %+v", te)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Error("timeout error does not match context.DeadlineExceeded")
		}
		if errors.Is(err, context.Canceled) {
			t.Error("timeout reported as a cancellation")
		}
		if elapsed > 2*time.Second {
			t.Errorf("timeout took %v, want ~%v", elapsed, budget)
		}
	}

	t.Run("alone", func(t *testing.T) {
		// One slot: brisk runs first, inside its budget, then glacial
		// times out.
		fast, fastCalls := slowStage("brisk", nil, time.Millisecond)
		st, calls := slowStage("glacial", []string{"brisk"}, 10*time.Second)
		start := time.Now()
		_, err := runDAG(context.Background(), []stage{fast, st}, testState(), make(chan struct{}, 1), budget, nil)
		checkTimeout(t, err, time.Since(start))
		if got := fastCalls.Load(); got != 1 {
			t.Errorf("stage inside its budget ran %d times, want 1", got)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("timed-out stage ran %d times, want 1", got)
		}
	})

	t.Run("in-flight sibling", func(t *testing.T) {
		// The sibling starts half a budget after glacial (behind gate),
		// so glacial's deadline fires while the sibling is still inside
		// its own.
		gate, _ := slowStage("gate", nil, budget/2)
		sibling, siblingCalls := slowStage("sibling", []string{"gate"}, 10*time.Second)
		st, _ := slowStage("glacial", nil, 10*time.Second)
		start := time.Now()
		sr, err := runDAG(context.Background(), []stage{gate, sibling, st}, testState(), make(chan struct{}, 2), budget, nil)
		checkTimeout(t, err, time.Since(start))
		if got := siblingCalls.Load(); got != 1 || sr.maxConcurrent != 2 {
			t.Errorf("sibling ran %d times, max concurrent %d; want it in flight beside glacial", got, sr.maxConcurrent)
		}
	})
}

// TestStageTimeoutCallerCancelWins: when the caller's context is
// cancelled the error must stay the plain context error, not be
// misreported as a per-stage deadline.
func TestStageTimeoutCallerCancelWins(t *testing.T) {
	st, _ := slowStage("glacial", nil, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := runDAG(ctx, []stage{st}, testState(), make(chan struct{}, 1), time.Minute, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var te *StageTimeoutError
	if errors.As(err, &te) {
		t.Error("caller cancellation misreported as a stage timeout")
	}
}

// TestValidateStageTimeout: Config.Validate rejects a negative
// per-stage deadline.
func TestValidateStageTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.StageTimeout = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Error("negative StageTimeout validated")
	}
}

// TestAnalyzeDegradedKDBOffline is the pipeline's graceful-degradation
// acceptance test: with the K-DB knocked offline by a broken WAL, an
// analysis still completes — recall falls back to the cold path,
// dropped writes are counted in Report.Degraded — and its analytical
// results are bit-for-bit the recall-disabled run over a healthy
// in-memory engine.
func TestAnalyzeDegradedKDBOffline(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	k, err := kdb.OpenStore(docstore.Options{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	e, err := NewWithKDB(testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}

	// Every WAL append fails from here: one write breaks the store and
	// the breaker trips offline, so the whole analysis runs against a
	// refusing K-DB (its own one write comes last, after recall).
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	if err := k.StoreAnalysis(stats.Descriptor{DatasetName: "broken"}, nil); err == nil {
		t.Fatal("write over a failing WAL succeeded")
	}

	log := seededLog(t, 3)
	rep, err := e.Analyze(log)
	if err != nil {
		t.Fatalf("analysis over offline K-DB failed: %v", err)
	}
	if got := k.Health().Mode; got != kdb.ModeOffline {
		t.Fatalf("K-DB mode after broken WAL = %s, want offline", got)
	}
	if rep.Degraded == nil || rep.Degraded.DroppedKDBWrites == 0 || len(rep.Degraded.Reasons) == 0 {
		t.Fatalf("report degradation = %+v, want dropped writes and reasons", rep.Degraded)
	}
	if rep.Recall == nil || rep.Recall.Fallback == "" || rep.Recall.Hit {
		t.Fatalf("recall outcome = %+v, want cold-path fallback", rep.Recall)
	}
	if len(rep.Recommendations) != 0 {
		t.Errorf("offline K-DB produced %d recommendations", len(rep.Recommendations))
	}

	// Cold baseline: recall disabled, healthy in-memory K-DB.
	coldCfg := testConfig()
	coldCfg.Recall.Disabled = true
	cold, err := New(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := cold.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}

	a, b := comparable(rep), comparable(coldRep)
	a.Recall, b.Recall = nil, nil
	a.Degraded, b.Degraded = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Error("degraded analysis diverged from the cold path (want bit-for-bit)")
	}
}

// TestAnalyzeDegradedSnapshotFault: snapshot-only faults leave the WAL
// intact — the analysis succeeds, acked writes survive reopen, and
// only the flush is reported degraded.
func TestAnalyzeDegradedSnapshotFault(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	// A tiny WAL budget so the per-analysis flush compacts (and hits
	// the injected snapshot fault).
	k, err := kdb.OpenStore(docstore.Options{Dir: dir, FS: ffs, MaxWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithKDB(testConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()})

	log := seededLog(t, 4)
	rep, err := e.Analyze(log)
	if err != nil {
		t.Fatalf("analysis under snapshot fault failed: %v", err)
	}
	if rep.Degraded == nil {
		t.Fatal("snapshot fault not reported in Degraded")
	}
	if rep.Degraded.DroppedKDBWrites != 0 {
		t.Errorf("snapshot fault dropped %d writes, want 0 (WAL intact)", rep.Degraded.DroppedKDBWrites)
	}
	if rep.Recall == nil || rep.Recall.Fallback != "" {
		t.Errorf("recall outcome = %+v, want healthy miss", rep.Recall)
	}
	k.Close()

	// Reopen without faults: every acked write replays from the WAL.
	k2, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	items, err := k2.KnowledgeItems(log.Name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Error("knowledge items lost despite acked WAL writes")
	}
}
