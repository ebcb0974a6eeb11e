package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adahealth/internal/dataset"
)

// testStage builds a synthetic stage for scheduler tests: it waits for
// the stages named in after and runs run (nil = succeed at once).
func testStage(name string, after []string, run func(ctx context.Context, s *pipelineState) error) stage {
	return stage{name: name, after: after, run: func(_ *Engine, ctx context.Context, s *pipelineState) error {
		if run == nil {
			return nil
		}
		return run(ctx, s)
	}}
}

func testState() *pipelineState {
	return &pipelineState{log: dataset.NewLog("sched-test"), rep: &Report{}}
}

// validateStages checks the static shape the scheduler needs of a
// stage list: names unique, and every stage listed below each stage it
// waits for. The last property is stronger than mere acyclicity; it
// rules out cycles in one pass and guarantees the scheduler can always
// make progress.
func validateStages(stages []stage) error {
	names := map[string]bool{}
	for _, st := range stages {
		names[st.name] = true
	}
	seen := map[string]bool{}
	for _, st := range stages {
		if seen[st.name] {
			return fmt.Errorf("core: duplicate stage name %q", st.name)
		}
		for _, dep := range st.after {
			if !names[dep] {
				return fmt.Errorf("core: stage %q waits for %q, which is no stage", st.name, dep)
			}
			if !seen[dep] {
				return fmt.Errorf("core: stage %q declared before %q, which it waits for (cycle or mis-ordered stage list)",
					st.name, dep)
			}
		}
		seen[st.name] = true
	}
	return nil
}

func TestValidateStagesRejectsDuplicateName(t *testing.T) {
	err := validateStages([]stage{
		testStage("a", nil, nil),
		testStage("b", []string{"a"}, nil),
		testStage("a", nil, nil),
	})
	if err == nil || !strings.Contains(err.Error(), `duplicate stage name "a"`) {
		t.Fatalf("err = %v, want duplicate-name error", err)
	}
}

func TestValidateStagesRejectsUnknownInput(t *testing.T) {
	err := validateStages([]stage{
		testStage("a", []string{"ghost"}, nil),
	})
	if err == nil || !strings.Contains(err.Error(), "which is no stage") {
		t.Fatalf("err = %v, want unknown-stage error", err)
	}
}

func TestValidateStagesRejectsMisorderedDeclaration(t *testing.T) {
	// b waits for a but is declared before it: not a valid topological
	// declaration order (and the shape a cycle takes).
	err := validateStages([]stage{
		testStage("b", []string{"a"}, nil),
		testStage("a", nil, nil),
	})
	if err == nil || !strings.Contains(err.Error(), "declared before") {
		t.Fatalf("err = %v, want ordering error", err)
	}
}

// TestValidateStagesAcceptsBuiltinPipeline holds the built-in table to
// validateStages and to the DAG's edges, each stage's waits as listed.
func TestValidateStagesAcceptsBuiltinPipeline(t *testing.T) {
	if err := validateStages(pipeline); err != nil {
		t.Fatalf("built-in pipeline invalid: %v", err)
	}
	want := map[string][]string{
		"characterize":    nil,
		"recall":          {"characterize"},
		"transform":       nil,
		"partialmine":     {"transform"},
		"sweep":           {"partialmine", "recall"},
		"cluster":         {"partialmine", "sweep"},
		"patterns":        nil,
		"demand":          nil,
		"store-knowledge": {"characterize", "cluster", "patterns"},
		"endgoals":        {"characterize", "store-knowledge"},
		"rank":            {"cluster", "patterns"},
	}
	got := map[string][]string{}
	for _, st := range pipeline {
		got[st.name] = st.after
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pipeline edges = %v, want %v", got, want)
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
	stages := []stage{
		testStage("a", nil, rendezvous(aStarted, bStarted)),
		testStage("b", nil, rendezvous(bStarted, aStarted)),
		testStage("join", []string{"a", "b"}, nil),
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
	stages := []stage{
		testStage("src", nil, record("src")),
		testStage("mid", []string{"src"}, record("mid")),
		testStage("sink", []string{"mid"}, record("sink")),
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
	var stages []stage
	for i := 0; i < 6; i++ {
		stages = append(stages, testStage(fmt.Sprintf("s%d", i), nil,
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
	stages := []stage{
		testStage("bad", nil,
			func(context.Context, *pipelineState) error { return boom }),
		testStage("down", []string{"bad"},
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
	_, err := runDAG(ctx, []stage{testStage("a", nil, nil)},
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
	stages := []stage{
		testStage("one", nil, record("one")),
		testStage("two", []string{"one"}, record("two")),
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
