package core

import "time"

// StagePhase is one side of a stage's lifecycle: the scheduler emits a
// StageStart event when a stage begins executing (after it acquired a
// pool slot) and a StageFinish event when its Run returns.
type StagePhase string

const (
	StageStart  StagePhase = "start"
	StageFinish StagePhase = "finish"
)

// StageEvent is one live progress notification from the scheduler: a
// stage of the analysis DAG started or finished. Events fire from the
// scheduler's trace points — the same instants that delimit the
// Report.Stages intervals — so a consumer sees progress while the
// analysis runs instead of reconstructing it from traces afterwards.
type StageEvent struct {
	// Dataset is the analyzed log's name.
	Dataset string `json:"dataset"`
	// Stage is the DAG stage name.
	Stage string `json:"stage"`
	// Phase is StageStart or StageFinish.
	Phase StagePhase `json:"phase"`
	// Time is when the transition happened.
	Time time.Time `json:"time"`
	// Err is the stage's failure message on finish ("" = success).
	Err string `json:"err,omitempty"`
}

// StageObserver receives StageEvents during an analysis. Observers are
// called synchronously from scheduler goroutines and must not block:
// hand the event off (e.g. into a buffered channel with a non-blocking
// send) rather than doing work inline. A blocking observer stalls every
// analysis on the engine: the stage it holds up keeps its slot of the
// engine's shared CPU budget.
type StageObserver func(StageEvent)

// observe invokes o when non-nil.
func (o StageObserver) observe(dataset, stage string, phase StagePhase, at time.Time, err error) {
	if o == nil {
		return
	}
	ev := StageEvent{Dataset: dataset, Stage: stage, Phase: phase, Time: at}
	if err != nil {
		ev.Err = err.Error()
	}
	o(ev)
}
