package core_test

import (
	"context"
	"errors"
	"testing"

	"adahealth/internal/core"
	"adahealth/internal/obs"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/service"
	"adahealth/internal/synth"
)

// TestServiceStagePanicCountedOnce: a stage that panics inside a
// service job fails the job with the stage's *PanicError and is counted
// once in core_stage_panics_total, by the scheduler; the service counts
// no job-level panic for it.
func TestServiceStagePanicCountedOnce(t *testing.T) {
	reg := obs.Default()
	stage0 := reg.Value("core_stage_panics_total", "patterns")
	job0 := reg.Value("core_stage_panics_total", "job")
	core.PanicIn(t, "patterns")

	svc, err := service.New(service.Config{
		Engine: core.Config{
			Seed:    1,
			Partial: partial.Config{Ks: []int{4}},
			Sweep:   optimize.SweepConfig{Ks: []int{3, 4, 5}, CVFolds: 4},
		},
		Workers:    1,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	log, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait(context.Background())
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Stage != "patterns" {
		t.Fatalf("job err = %v, want the patterns stage's *PanicError", err)
	}
	if d := reg.Value("core_stage_panics_total", "patterns") - stage0; d != 1 {
		t.Errorf("core_stage_panics_total{stage=patterns} moved by %v, want 1", d)
	}
	if d := reg.Value("core_stage_panics_total", "job") - job0; d != 0 {
		t.Errorf("core_stage_panics_total{stage=job} moved by %v, want 0", d)
	}
}
