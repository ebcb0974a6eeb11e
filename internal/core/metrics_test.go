package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"adahealth/internal/obs"
)

// panicIn makes the named stage of the built-in pipeline panic until
// the test ends.
func panicIn(t testing.TB, name string) {
	t.Helper()
	saved := pipeline
	pipeline = slices.Clone(pipeline)
	i := slices.IndexFunc(pipeline, func(st stage) bool { return st.name == name })
	if i < 0 {
		t.Fatalf("no stage %q", name)
	}
	pipeline[i].run = func(*Engine, context.Context, *pipelineState) error { panic("injected") }
	t.Cleanup(func() { pipeline = saved })
}

// PanicIn exposes panicIn to the package's external tests.
var PanicIn = panicIn

// TestAnalyzeRecordsStageMetrics: a library analysis, with no service
// around it, counts each stage of the pipeline once as ok in
// core_stage_total and observes its latency once in core_stage_seconds.
func TestAnalyzeRecordsStageMetrics(t *testing.T) {
	reg := obs.Default()
	type counts struct{ ok, failed, seconds float64 }
	read := func() map[string]counts {
		m := map[string]counts{}
		for _, st := range pipeline {
			m[st.name] = counts{
				ok:      reg.Value("core_stage_total", st.name, "ok"),
				failed:  reg.Value("core_stage_total", st.name, "error"),
				seconds: reg.Value("core_stage_seconds", st.name),
			}
		}
		return m
	}
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := read()
	if _, err := e.Analyze(smallLog(t)); err != nil {
		t.Fatal(err)
	}
	after := read()
	for _, st := range pipeline {
		b, a := before[st.name], after[st.name]
		if a.ok-b.ok != 1 || a.failed != b.failed || a.seconds-b.seconds != 1 {
			t.Errorf("stage %s moved ok by %v, error by %v and latency observations by %v; want 1, 0 and 1",
				st.name, a.ok-b.ok, a.failed-b.failed, a.seconds-b.seconds)
		}
	}
}

// TestStagePanicCountedOnce: a stage that panics in a library analysis
// fails it with a *PanicError and is counted once in
// core_stage_panics_total, and once as an error in core_stage_total.
func TestStagePanicCountedOnce(t *testing.T) {
	reg := obs.Default()
	panics0 := reg.Value("core_stage_panics_total", "patterns")
	errors0 := reg.Value("core_stage_total", "patterns", "error")
	panicIn(t, "patterns")
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Analyze(smallLog(t))
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != "patterns" {
		t.Fatalf("err = %v, want the patterns stage's *PanicError", err)
	}
	if d := reg.Value("core_stage_panics_total", "patterns") - panics0; d != 1 {
		t.Errorf("core_stage_panics_total{stage=patterns} moved by %v, want 1", d)
	}
	if d := reg.Value("core_stage_total", "patterns", "error") - errors0; d != 1 {
		t.Errorf("core_stage_total{stage=patterns,outcome=error} moved by %v, want 1", d)
	}
}
