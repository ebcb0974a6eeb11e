package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adahealth/internal/dataset"
)

// testStage builds a synthetic funcStage for scheduler tests.
func testStage(name string, ins, outs []string, run func(ctx context.Context, s *pipelineState) error) Stage {
	if run == nil {
		run = func(context.Context, *pipelineState) error { return nil }
	}
	return &funcStage{name: name, inputs: ins, outputs: outs, run: run}
}

func testState() *pipelineState {
	return &pipelineState{log: dataset.NewLog("sched-test"), rep: &Report{}}
}

func TestValidateStagesRejectsDuplicateOutput(t *testing.T) {
	err := validateStages([]Stage{
		testStage("a", nil, []string{"x"}, nil),
		testStage("b", nil, []string{"x"}, nil),
	})
	if err == nil || !strings.Contains(err.Error(), "both produce") {
		t.Fatalf("err = %v, want duplicate-output error", err)
	}
}

func TestValidateStagesRejectsUnknownInput(t *testing.T) {
	err := validateStages([]Stage{
		testStage("a", []string{"ghost"}, []string{"x"}, nil),
	})
	if err == nil || !strings.Contains(err.Error(), "no stage produces") {
		t.Fatalf("err = %v, want unknown-input error", err)
	}
}

func TestValidateStagesRejectsMisorderedDeclaration(t *testing.T) {
	// b consumes x but is declared before a produces it: not a valid
	// topological declaration order (and the shape a cycle takes).
	err := validateStages([]Stage{
		testStage("b", []string{"x"}, []string{"y"}, nil),
		testStage("a", nil, []string{"x"}, nil),
	})
	if err == nil || !strings.Contains(err.Error(), "declared before") {
		t.Fatalf("err = %v, want ordering error", err)
	}
}

func TestValidateStagesAcceptsBuiltinPipeline(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := validateStages(e.pipelineStages()); err != nil {
		t.Fatalf("built-in pipeline invalid: %v", err)
	}
}

// TestRunDAGOverlapsIndependentStages proves concurrent execution
// deterministically: two independent stages rendezvous through
// channels — each signals it has started, then waits for the other —
// so the DAG completes only if both run at the same time, and their
// recorded wall-clock intervals must overlap. A serial scheduler
// would deadlock here (bounded by the context timeout).
func TestRunDAGOverlapsIndependentStages(t *testing.T) {
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	rendezvous := func(mine, other chan struct{}) func(ctx context.Context, s *pipelineState) error {
		return func(ctx context.Context, s *pipelineState) error {
			close(mine)
			select {
			case <-other:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	stages := []Stage{
		testStage("a", nil, []string{"x"}, rendezvous(aStarted, bStarted)),
		testStage("b", nil, []string{"y"}, rendezvous(bStarted, aStarted)),
		testStage("join", []string{"x", "y"}, []string{"z"}, nil),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sr, err := runDAG(ctx, stages, testState(), make(chan struct{}, 2), 0, nil)
	if err != nil {
		t.Fatalf("runDAG: %v (serial scheduling would deadlock into this)", err)
	}
	if sr.maxConcurrent < 2 {
		t.Errorf("max concurrent stages = %d, want >= 2", sr.maxConcurrent)
	}
	if len(sr.traces) != 3 {
		t.Fatalf("traces = %d, want 3", len(sr.traces))
	}
	var a, b *struct{ start, end time.Time }
	for _, tr := range sr.traces {
		iv := &struct{ start, end time.Time }{tr.Start, tr.End}
		switch tr.Stage {
		case "a":
			a = iv
		case "b":
			b = iv
		}
	}
	if a == nil || b == nil {
		t.Fatal("traces for a and b missing")
	}
	if !(a.start.Before(b.end) && b.start.Before(a.end)) {
		t.Errorf("stage intervals do not overlap: a=[%v,%v] b=[%v,%v]",
			a.start, a.end, b.start, b.end)
	}
}

func TestRunDAGRespectsDependencies(t *testing.T) {
	var mu sync.Mutex
	var order []string
	record := func(name string) func(ctx context.Context, s *pipelineState) error {
		return func(context.Context, *pipelineState) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	stages := []Stage{
		testStage("src", nil, []string{"x"}, record("src")),
		testStage("mid", []string{"x"}, []string{"y"}, record("mid")),
		testStage("sink", []string{"y"}, []string{"z"}, record("sink")),
	}
	sr, err := runDAG(context.Background(), stages, testState(), make(chan struct{}, 4), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"src", "mid", "sink"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
	// A strict chain can never run two stages at once.
	if sr.maxConcurrent != 1 {
		t.Errorf("max concurrent = %d on a chain, want 1", sr.maxConcurrent)
	}
}

func TestRunDAGPoolBoundsConcurrency(t *testing.T) {
	var stages []Stage
	for i := 0; i < 6; i++ {
		stages = append(stages, testStage(fmt.Sprintf("s%d", i), nil,
			[]string{fmt.Sprintf("o%d", i)},
			func(context.Context, *pipelineState) error {
				time.Sleep(time.Millisecond)
				return nil
			}))
	}
	sr, err := runDAG(context.Background(), stages, testState(), make(chan struct{}, 1), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.maxConcurrent != 1 {
		t.Errorf("max concurrent = %d with pool of 1, want 1", sr.maxConcurrent)
	}
}

func TestRunDAGErrorSkipsDownstream(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	stages := []Stage{
		testStage("bad", nil, []string{"x"},
			func(context.Context, *pipelineState) error { return boom }),
		testStage("down", []string{"x"}, []string{"y"},
			func(context.Context, *pipelineState) error { ran = true; return nil }),
	}
	_, err := runDAG(context.Background(), stages, testState(), make(chan struct{}, 2), 0, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "stage bad") {
		t.Errorf("error %q does not name the failing stage", err)
	}
	if ran {
		t.Error("downstream stage ran despite failed producer")
	}
}

func TestRunDAGCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runDAG(ctx, []Stage{testStage("a", nil, []string{"x"}, nil)},
		testState(), make(chan struct{}, 1), 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunSequentialOrderAndTraces: the serial run (a one-slot pool,
// what Parallelism 1 gives) executes a chain in declaration order,
// one stage at a time, and traces each stage with the dataset name
// and a valid interval that ends before the next stage starts.
func TestRunSequentialOrderAndTraces(t *testing.T) {
	var order []string
	record := func(name string) func(ctx context.Context, s *pipelineState) error {
		return func(context.Context, *pipelineState) error {
			order = append(order, name) // no lock: one slot, and a chain
			return nil
		}
	}
	stages := []Stage{
		testStage("one", nil, []string{"x"}, record("one")),
		testStage("two", []string{"x"}, []string{"y"}, record("two")),
	}
	sr, err := runDAG(context.Background(), stages, testState(), make(chan struct{}, 1), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != fmt.Sprint([]string{"one", "two"}) {
		t.Errorf("order = %v", order)
	}
	if sr.maxConcurrent != 1 {
		t.Errorf("serial max concurrent = %d", sr.maxConcurrent)
	}
	if len(sr.traces) != len(stages) {
		t.Fatalf("traces = %d, want %d", len(sr.traces), len(stages))
	}
	for i, tr := range sr.traces {
		if tr.Dataset != "sched-test" {
			t.Errorf("trace %s dataset = %q", tr.Stage, tr.Dataset)
		}
		if tr.WallNanos < 0 || tr.End.Before(tr.Start) {
			t.Errorf("trace %s has invalid interval", tr.Stage)
		}
		if i > 0 && tr.Start.Before(sr.traces[i-1].End) {
			t.Errorf("trace %s starts before %s ends", tr.Stage, sr.traces[i-1].Stage)
		}
	}
}
